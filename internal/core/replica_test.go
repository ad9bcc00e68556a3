package core

import (
	"bytes"
	"strings"
	"testing"

	"recmem/internal/wire"
)

// TestReplicaTable runs every replica line of Figs. 4–6 and §VI — the SN
// query (Fig. 4 lines 18–20), the read (28–30) and the W and WB adoption
// (21–27) — on every row against a view that is lower than, equal to and
// higher than the request's tag. The table says, per row, which requests are
// answered inline and which log: "<" when the request's tag is higher than
// the view (an adoption), "<=>" whatever the tag (§I-C logs every step).
func TestReplicaTable(t *testing.T) {
	rows := []struct {
		name   string
		p      protocol
		inline string // request kinds answered at once, by the listener
		logs   map[wire.Kind]string
	}{
		{"crash-stop", newProtocol(CrashStop, Options{}), "SN R", nil},
		{"transient", newProtocol(Transient, Options{}), "SN R", map[wire.Kind]string{wire.KindWrite: "<", wire.KindWriteBack: "<"}},
		{"persistent", newProtocol(Persistent, Options{}), "SN R", map[wire.Kind]string{wire.KindWrite: "<", wire.KindWriteBack: "<"}},
		{"naive", newProtocol(Naive, Options{}), "R", map[wire.Kind]string{wire.KindSNQuery: "<=>", wire.KindWrite: "<=>", wire.KindWriteBack: "<=>"}},
		{"regular-sw", newProtocol(RegularSW, Options{}), "SN R", map[wire.Kind]string{wire.KindWrite: "<", wire.KindWriteBack: "<"}},
	}
	cur := regState{tag: tagOf(5, 2, 0), val: []byte("v5")}
	rels := []struct {
		rel string
		seq int64
	}{{"<", 7}, {"=", 5}, {">", 3}}
	short := map[wire.Kind]string{wire.KindSNQuery: "SN", wire.KindRead: "R", wire.KindWrite: "W", wire.KindWriteBack: "WB"}
	for _, row := range rows {
		for _, kind := range []wire.Kind{wire.KindSNQuery, wire.KindRead, wire.KindWrite, wire.KindWriteBack} {
			for _, r := range rels {
				env := wire.Envelope{Kind: kind, From: 2, To: 0, Reg: "x", RPC: 9, Op: 4, Depth: 1}
				if kind == wire.KindWrite || kind == wire.KindWriteBack {
					env.Tag, env.Value = tagOf(r.seq, 2, 0), []byte("new")
				}
				name := row.name + "/" + short[kind] + r.rel
				if got, want := row.p.inline(kind), strings.Contains(" "+row.inline+" ", " "+short[kind]+" "); got != want {
					t.Errorf("%s: inline = %v, want %v", name, got, want)
				}

				next, reply, rec := row.p.replica(cur, env)
				adopts := env.Tag.Seq > cur.tag.Seq
				if want := cur; adopts {
					want = regState{tag: env.Tag, val: env.Value}
					if next.tag != want.tag || !bytes.Equal(next.val, want.val) {
						t.Errorf("%s: view after = %v %q, want the adoption %v %q", name, next.tag, next.val, want.tag, want.val)
					}
				} else if next.tag != cur.tag || !bytes.Equal(next.val, cur.val) {
					t.Errorf("%s: view after = %v %q, want it unchanged", name, next.tag, next.val)
				}

				logs := strings.Contains(row.logs[kind], r.rel)
				depth := uint8(1)
				if logs {
					depth = 2
				}
				want := wire.Envelope{Kind: ackOf(kind), To: 2, Reg: "x", RPC: 9, Op: 4, Depth: depth}
				switch kind {
				case wire.KindSNQuery:
					want.Tag = cur.tag
				case wire.KindRead:
					want.Tag, want.Value = cur.tag, cur.val
				}
				if reply.Kind != want.Kind || reply.To != want.To || reply.Reg != want.Reg || reply.RPC != want.RPC ||
					reply.Op != want.Op || reply.Depth != want.Depth || reply.Tag != want.Tag || !bytes.Equal(reply.Value, want.Value) {
					t.Errorf("%s: reply = %v, want %v", name, reply, want)
				}

				switch {
				case !logs && rec.Name != "":
					t.Errorf("%s: logs %s, want no record", name, rec.Name)
				case !logs:
				case kind == wire.KindSNQuery:
					if rec.Name != recSNLogPrefix+"x" || !bytes.Equal(rec.Data, encodeTagged(cur.tag, nil)) {
						t.Errorf("%s: record %s, want %sx with the view's tag", name, rec.Name, recSNLogPrefix)
					}
				default:
					if rec.Name != recWrittenPrefix+"x" || !bytes.Equal(rec.Data, encodeTagged(next.tag, next.val)) {
						t.Errorf("%s: record %s, want %sx with the view after", name, rec.Name, recWrittenPrefix)
					}
				}
			}
		}
	}
}
