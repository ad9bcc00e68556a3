package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseInts(t *testing.T) {
	tests := []struct {
		give    string
		want    []int
		wantErr bool
	}{
		{give: "", want: nil},
		{give: "3", want: []int{3}},
		{give: "2, 5,9", want: []int{2, 5, 9}},
		{give: "x", wantErr: true},
		{give: "0", wantErr: true},
		{give: "-3", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseInts(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Fatalf("parseInts(%q) accepted", tt.give)
			}
			continue
		}
		if err != nil {
			t.Fatalf("parseInts(%q): %v", tt.give, err)
		}
		if len(got) != len(tt.want) {
			t.Fatalf("parseInts(%q) = %v", tt.give, got)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Fatalf("parseInts(%q) = %v", tt.give, got)
			}
		}
	}
}

func TestRunTinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	err := run([]string{
		"-experiment", "fig6a",
		"-writes", "3", "-warmup", "1", "-passes", "1",
		"-ns", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-experiment", "fig6b",
		"-writes", "2", "-warmup", "1", "-passes", "1",
		"-sizes", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Fatal("accepted unknown experiment")
	}
	if err := run([]string{"-ns", "zebra"}); err == nil {
		t.Fatal("accepted bad -ns")
	}
	if err := run([]string{"-sizes", "-1"}); err == nil {
		t.Fatal("accepted bad -sizes")
	}
}

// TestAppendBenchEntryRejectsForeignSchema pins the trajectory-file
// contract: an unknown schema is an error, never silently rewritten.
func TestAppendBenchEntryRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_namespace.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendTrajectory(path, nsSchema, nsEntry{}); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// TestNamespaceBench runs a miniature register-count sweep over both
// engines and checks the trajectory file it appends: verified probes, both
// backends per count, pinned schema.
func TestNamespaceBench(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var out strings.Builder
	jsonPath := filepath.Join(t.TempDir(), "BENCH_namespace.json")
	cfg := namespaceConfig{
		Registers: []int{400}, ValueBytes: 64, Batch: 16,
		JSONPath: jsonPath, Commit: "test", Out: &out,
	}
	if err := namespaceBench(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	for _, backend := range nsBackends {
		if !strings.Contains(out.String(), backend) {
			t.Fatalf("output missing backend %s: %q", backend, out.String())
		}
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var f trajectoryFile[nsEntry]
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trajectory file: %v", err)
	}
	if f.Schema != nsSchema || len(f.Entries) != 1 {
		t.Fatalf("trajectory = schema %q, %d entries", f.Schema, len(f.Entries))
	}
	entry := f.Entries[0]
	if len(entry.Rows) != 2*len(cfg.Registers) {
		t.Fatalf("entry has %d rows, want one per backend per count: %+v", len(entry.Rows), entry)
	}
	for _, row := range entry.Rows {
		if row.LoadOpsPerSec <= 0 || row.RecoveryMS <= 0 || row.ProbeUS <= 0 || row.DiskBytes <= 0 {
			t.Fatalf("row not measured: %+v", row)
		}
		if row.LoadOps != 400+400/4 {
			t.Fatalf("row loaded %d ops, want population + churn: %+v", row.LoadOps, row)
		}
	}
}
