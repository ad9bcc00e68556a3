package history

import (
	"strings"
	"sync"
	"testing"
)

// build constructs a history from a compact spec; each entry becomes the next
// event with Seq assigned sequentially starting at 1.
func build(t *testing.T, events []Event) History {
	t.Helper()
	h := make(History, len(events))
	for i, e := range events {
		e.Seq = int64(i + 1)
		h[i] = e
	}
	return h
}

func TestValidateWellFormed(t *testing.T) {
	h := build(t, []Event{
		{Proc: 1, Kind: Invoke, Op: Write, OpID: 1, Reg: "x", Value: "a"},
		{Proc: 2, Kind: Invoke, Op: Read, OpID: 2, Reg: "x"},
		{Proc: 1, Kind: Return, Op: Write, OpID: 1, Reg: "x"},
		{Proc: 2, Kind: Return, Op: Read, OpID: 2, Reg: "x", Value: "a"},
		{Proc: 1, Kind: Invoke, Op: Write, OpID: 3, Reg: "x", Value: "b"},
		{Proc: 1, Kind: Crash},
		{Proc: 1, Kind: Recover},
		{Proc: 1, Kind: Invoke, Op: Write, OpID: 4, Reg: "x", Value: "c"},
		{Proc: 1, Kind: Return, Op: Write, OpID: 4, Reg: "x"},
	})
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name    string
		events  []Event
		wantSub string
	}{
		{
			name: "double invoke",
			events: []Event{
				{Proc: 1, Kind: Invoke, Op: Write, OpID: 1, Reg: "x"},
				{Proc: 1, Kind: Invoke, Op: Write, OpID: 2, Reg: "x"},
			},
			wantSub: "pending operation",
		},
		{
			name: "return without invoke",
			events: []Event{
				{Proc: 1, Kind: Return, Op: Write, OpID: 1, Reg: "x"},
			},
			wantSub: "does not match",
		},
		{
			name: "mismatched return",
			events: []Event{
				{Proc: 1, Kind: Invoke, Op: Write, OpID: 1, Reg: "x"},
				{Proc: 1, Kind: Return, Op: Write, OpID: 9, Reg: "x"},
			},
			wantSub: "does not match",
		},
		{
			name: "double crash",
			events: []Event{
				{Proc: 1, Kind: Crash},
				{Proc: 1, Kind: Crash},
			},
			wantSub: "crashes twice",
		},
		{
			name: "recover without crash",
			events: []Event{
				{Proc: 1, Kind: Recover},
			},
			wantSub: "recovers without crash",
		},
		{
			name: "invoke while crashed",
			events: []Event{
				{Proc: 1, Kind: Crash},
				{Proc: 1, Kind: Invoke, Op: Read, OpID: 1, Reg: "x"},
			},
			wantSub: "invokes while crashed",
		},
		{
			name: "return while crashed",
			events: []Event{
				{Proc: 1, Kind: Invoke, Op: Read, OpID: 1, Reg: "x"},
				{Proc: 1, Kind: Crash},
				{Proc: 1, Kind: Return, Op: Read, OpID: 1, Reg: "x"},
			},
			wantSub: "returns while crashed",
		},
		{
			name: "missing opid",
			events: []Event{
				{Proc: 1, Kind: Invoke, Op: Read, Reg: "x"},
			},
			wantSub: "without OpID",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := build(t, tt.events)
			err := h.Validate()
			if err == nil {
				t.Fatal("Validate accepted ill-formed history")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("Validate error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestValidateOutOfOrder(t *testing.T) {
	h := History{
		{Seq: 2, Proc: 1, Kind: Invoke, Op: Read, OpID: 1, Reg: "x"},
		{Seq: 1, Proc: 1, Kind: Return, Op: Read, OpID: 1, Reg: "x"},
	}
	if err := h.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-order history")
	}
}

func TestOperations(t *testing.T) {
	h := build(t, []Event{
		{Proc: 1, Kind: Invoke, Op: Write, OpID: 1, Reg: "x", Value: "a"},
		{Proc: 1, Kind: Return, Op: Write, OpID: 1, Reg: "x"},
		{Proc: 2, Kind: Invoke, Op: Read, OpID: 2, Reg: "x"},
		{Proc: 2, Kind: Return, Op: Read, OpID: 2, Reg: "x", Value: "a"},
		{Proc: 1, Kind: Invoke, Op: Write, OpID: 3, Reg: "x", Value: "b"},
		{Proc: 1, Kind: Crash},
	})
	ops := h.Operations()
	if len(ops) != 3 {
		t.Fatalf("got %d operations, want 3", len(ops))
	}
	if ops[0].Type != Write || ops[0].Value != "a" || ops[0].Pending() {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if ops[1].Type != Read || ops[1].Value != "a" || ops[1].Pending() {
		t.Fatalf("op1 = %+v (read should adopt returned value)", ops[1])
	}
	if !ops[2].Pending() || ops[2].Value != "b" {
		t.Fatalf("op2 = %+v (crashed write should stay pending)", ops[2])
	}
}

func TestRestrictAndRegisters(t *testing.T) {
	h := build(t, []Event{
		{Proc: 1, Kind: Invoke, Op: Write, OpID: 1, Reg: "x", Value: "a"},
		{Proc: 1, Kind: Return, Op: Write, OpID: 1, Reg: "x"},
		{Proc: 2, Kind: Invoke, Op: Write, OpID: 2, Reg: "y", Value: "b"},
		{Proc: 2, Kind: Crash},
		{Proc: 2, Kind: Recover},
	})
	regs := h.Registers()
	if len(regs) != 2 || regs[0] != "x" || regs[1] != "y" {
		t.Fatalf("Registers = %v", regs)
	}
	hx := h.Restrict("x")
	// x events plus process-wide crash/recover.
	if len(hx) != 4 {
		t.Fatalf("Restrict(x) kept %d events, want 4", len(hx))
	}
	if err := hx.Validate(); err != nil {
		t.Fatalf("restricted history ill-formed: %v", err)
	}
}

func TestOperationString(t *testing.T) {
	w := Operation{Proc: 1, Type: Write, Value: "v1", Inv: 1, Ret: 2}
	if got := w.String(); got != "p1:W(v1)" {
		t.Fatalf("String = %q", got)
	}
	r := Operation{Proc: 2, Type: Read, Value: "v1", Ret: PendingRet}
	if got := r.String(); got != "p2:R(v1)?" {
		t.Fatalf("String = %q", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for p := int32(1); p <= 4; p++ {
		wg.Add(1)
		go func(p int32) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := r.Invoke(p, Write, "x", "v")
				r.Return(p, Write, id, "x", "")
			}
		}(p)
	}
	wg.Wait()
	h := r.History()
	if len(h) != 800 {
		t.Fatalf("recorded %d events, want 800", len(h))
	}
	for i, e := range h {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d is numbered %d: the recorder numbers events 1, 2, … in the order it records them", i, e.Seq)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("recorded history ill-formed: %v", err)
	}
	if r.Len() != 800 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRecorderCrashRecover(t *testing.T) {
	r := NewRecorder()
	id := r.Invoke(1, Write, "x", "a")
	r.Crash(1)
	r.Recover(1)
	_ = id
	h := r.History()
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ops := h.Operations()
	if len(ops) != 1 || !ops[0].Pending() {
		t.Fatalf("ops = %v", ops)
	}
}

func TestCloneIndependent(t *testing.T) {
	h := build(t, []Event{{Proc: 1, Kind: Crash}})
	c := h.Clone()
	c[0].Proc = 9
	if h[0].Proc != 1 {
		t.Fatal("Clone shares backing array")
	}
}
