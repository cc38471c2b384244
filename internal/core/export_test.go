package core

// The helpers of core_test.go that the external tests (package core_test)
// share.
var (
	NewBatchTrace = newBatchTrace
	FrontierSizes = frontierSizes
)
