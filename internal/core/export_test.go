package core

import "recmem/internal/tag"

// tagOf is a test helper constructing tags concisely.
func tagOf(seq int64, writer, rec int32) tag.Tag {
	return tag.Tag{Seq: seq, Writer: writer, Rec: rec}
}

// mintTag is the timestamp a write would mint at nd after seeing maxSeq.
func (nd *Node) mintTag(maxSeq int64) tag.Tag { return nd.mint(maxSeq, nd.RecoveryCount()) }
