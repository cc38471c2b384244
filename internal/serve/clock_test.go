package serve

import "testing"

func TestRealClockBasics(t *testing.T) {
	if RealClock().Now().IsZero() {
		t.Error("real clock reads zero time")
	}
}
