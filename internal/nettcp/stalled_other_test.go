//go:build !linux

package nettcp

import "testing"

// stalledAddr needs Linux's backlog semantics to make a dial hang.
func stalledAddr(t *testing.T) string {
	t.Skip("a stalled peer needs a Linux listen backlog")
	return ""
}
