package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// WriteJSONAtomic marshals v (indented, trailing newline) and installs it at
// path via a temp file in the same directory followed by an atomic rename.
// A reader — or a process inspecting results/ after this one was killed —
// either sees the previous complete file or the new complete file, never a
// truncated prefix. The perf gate's baseline and the -metrics-out snapshots
// of cmd/glign and cmd/glign-bench all write through this one path.
func WriteJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: marshal %s: %w", path, err)
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// WriteFileAtomic writes data to path via temp-file + rename. The temp file
// lives in path's directory (rename is only atomic within one filesystem)
// and is fsynced before the rename, so a crash cannot install an empty or
// partial file under the final name.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure past this point must not leave the temp file behind.
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("perf: write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	// CreateTemp opens 0600; published artifacts should be world-readable
	// like a plain os.WriteFile(…, 0o644).
	if err := tmp.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("perf: write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("perf: install %s: %w", path, err)
	}
	return nil
}
