package main

import (
	"strings"
	"testing"
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
	// batch, disks and namespace were experiments once (docs/adr/0014).
	for _, name := range []string{"nope", "batch", "disks", "namespace"} {
		err := run([]string{"-experiment", name})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("-experiment %s: err = %v, want unknown experiment", name, err)
		}
	}
	if err := run([]string{"-ns", "zebra"}); err == nil {
		t.Fatal("accepted bad -ns")
	}
	if err := run([]string{"-sizes", "-1"}); err == nil {
		t.Fatal("accepted bad -sizes")
	}
}
