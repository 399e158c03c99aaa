package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioParse: the sweep daemon compiles scenario files uploaded
// over HTTP, so whatever the bytes, Parse must not panic, and a
// scenario it accepts must yield its ID, Header and Cells at any base
// seed without panicking. The corpus starts from the shipped example
// scenarios.
func FuzzScenarioParse(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.toml")
	if err != nil || len(files) == 0 {
		f.Fatalf("example scenarios: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint64(0))
		f.Add(string(src), uint64(7))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		s, err := Parse(src, "fuzz.toml")
		if err != nil {
			return
		}
		if s.ID() == "" {
			t.Error("empty ID")
		}
		if len(s.Header()) == 0 {
			t.Error("empty header")
		}
		s.Cells(seed)
	})
}
