package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestRun checks Figure 1's verdicts as run prints them: the Fig. 5 run is
// transient-atomic but not persistent-atomic, and the Fig. 4 run is both.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var verdicts []string
	for _, line := range strings.Split(out.String(), "\n") {
		if _, v, ok := strings.Cut(line, "check:"); ok {
			verdicts = append(verdicts, strings.Fields(v)[0])
		}
	}
	// Fig. 5 transient, Fig. 5 persistent, Fig. 4 transient, Fig. 4 persistent.
	if want := []string{"PASS", "VIOLATION", "PASS", "PASS"}; !slices.Equal(verdicts, want) {
		t.Fatalf("verdicts %v, want %v\n%s", verdicts, want, out.String())
	}
}
