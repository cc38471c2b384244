package perf

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestWriteFileAtomicBasics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first\n")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second\n" {
		t.Fatalf("got %q, want the replacement content", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644", info.Mode().Perm())
	}
	// No temp files left behind on the happy path.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the target: %v", len(entries), entries)
	}
}

func TestWriteJSONAtomicEndsWithNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.json")
	if err := WriteJSONAtomic(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(got), "}\n") {
		t.Fatalf("JSON artifact must end with a newline, got %q", got)
	}
}

// killPayload is what the kill helper writes: a rep list and its sum, so a
// torn write that spliced two versions would fail the sum check.
type killPayload struct {
	Reps []int64 `json:"reps"`
	Sum  int64   `json:"sum"`
}

// TestAtomicWriteSurvivesKill spawns a helper process that rewrites one
// report path in a tight loop, SIGKILLs it mid-flight, and then requires the
// target to be either absent or a complete, valid report — never truncated.
// This is the property the -metrics-out snapshots and the perf gate's
// baseline rely on.
func TestAtomicWriteSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")

	cmd := exec.Command(os.Args[0], "-test.run", "TestAtomicWriteKillHelper", "-test.v")
	cmd.Env = append(os.Environ(), "GLIGN_ATOMIC_KILL_HELPER=1", "GLIGN_ATOMIC_KILL_PATH="+path)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the helper complete at least a few full writes, then kill it at an
	// arbitrary point of its write loop.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("helper never produced a report")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// The survivor must be a complete, parseable, consistent report.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var p killPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("after SIGKILL mid-write, the report is corrupt: %v", err)
	}
	var sum int64
	for _, ns := range p.Reps {
		sum += ns
	}
	if len(p.Reps) == 0 || sum != p.Sum {
		t.Fatalf("after SIGKILL mid-write, the report is inconsistent: %+v", p)
	}
	// Stray temp files are acceptable debris after SIGKILL, but the target
	// itself must never be one of them.
	if strings.Contains(path, ".tmp-") {
		t.Fatal("unreachable")
	}
}

// TestAtomicWriteKillHelper is the subprocess body for the kill test: it
// rewrites the report at GLIGN_ATOMIC_KILL_PATH forever (until killed).
func TestAtomicWriteKillHelper(t *testing.T) {
	if os.Getenv("GLIGN_ATOMIC_KILL_HELPER") != "1" {
		t.Skip("helper only runs as a subprocess")
	}
	path := os.Getenv("GLIGN_ATOMIC_KILL_PATH")
	for i := 0; ; i++ {
		// Vary the payload so a torn write would be detectable as a sum
		// mismatch even if it spliced two versions.
		ns := int64(1_000_000 + i%1000)
		if err := WriteJSONAtomic(path, killPayload{Reps: []int64{ns, ns, ns}, Sum: 3 * ns}); err != nil {
			t.Fatal(err)
		}
	}
}
