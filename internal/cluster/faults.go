package cluster

import (
	"context"
	"errors"
	"sync"

	"recmem/internal/core"
)

// RecoverAll recovers every crashed process, blocking until done. Used to
// end a faulty run in a healthy state.
func (c *Cluster) RecoverAll(ctx context.Context) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for p := int32(0); p < int32(c.cfg.N); p++ {
		if c.nodes[p].Up() {
			continue
		}
		wg.Add(1)
		go func(p int32) {
			defer wg.Done()
			err := c.Recover(ctx, p)
			if err != nil && !errors.Is(err, core.ErrNotDown) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	return firstErr
}
