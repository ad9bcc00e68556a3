// kvstore: a replicated key-value store built on the emulated shared
// memory — the paper's motivation that "distributed programming with a
// shared memory is usually considered easier than with message passing"
// made concrete: the store is ~40 lines because every key is just an atomic
// register; replication, fault tolerance and recovery come from the
// emulation.
//
// The demo runs concurrent clients against different processes while a
// process crashes and recovers mid-run, then verifies the whole history.
//
//	go run ./examples/kvstore
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"recmem"
)

// KV is a multi-reader multi-writer key-value store. Each client is bound
// to one backend client; any client may access any key. The store is
// written against the backend-agnostic recmem.Client interface, so the same
// code runs on the simulated cluster (as here) or on a live TCP mesh
// through remote.Dial. Register handles are cached per key: the per-key
// dispatcher resolution happens on first touch, not on every operation.
type KV struct {
	c    recmem.Client
	mu   sync.Mutex
	keys map[string]*recmem.Register
}

// NewKV builds a store over any backend client.
func NewKV(c recmem.Client) *KV {
	return &KV{c: c, keys: make(map[string]*recmem.Register)}
}

// register returns the cached handle for key.
func (kv *KV) register(key string) *recmem.Register {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	r := kv.keys[key]
	if r == nil {
		r = kv.c.Register(key)
		kv.keys[key] = r
	}
	return r
}

// Put stores value under key, surviving any minority of crashed processes
// and any number of crash-recoveries.
func (kv *KV) Put(ctx context.Context, key, value string) error {
	return kv.register(key).Write(ctx, []byte(value))
}

// Get returns the latest value of key ("" if never set). Gets are atomic:
// two sequential Gets never observe values out of write order.
func (kv *KV) Get(ctx context.Context, key string) (string, error) {
	val, err := kv.register(key).Read(ctx)
	return string(val), err
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, writing its report to w.
func run(w io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	c, err := recmem.New(5, recmem.PersistentAtomic,
		recmem.WithRetransmitEvery(5*time.Millisecond))
	if err != nil {
		return err
	}
	defer c.Close()

	// Three clients on three different processes share the store.
	clients := []*KV{NewKV(c.Process(0)), NewKV(c.Process(1)), NewKV(c.Process(2))}

	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for i, kv := range clients {
		wg.Add(1)
		go func(i int, kv *KV) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				key := fmt.Sprintf("user:%d", round%3)
				val := fmt.Sprintf("client%d-round%d", i, round)
				if err := kv.Put(ctx, key, val); err != nil {
					errs <- fmt.Errorf("client %d put: %w", i, err)
					return
				}
				if _, err := kv.Get(ctx, key); err != nil {
					errs <- fmt.Errorf("client %d get: %w", i, err)
					return
				}
			}
		}(i, kv)
	}

	// Meanwhile, a replica that no client talks to fails and recovers —
	// the clients never notice.
	chaos := c.Process(4)
	time.Sleep(5 * time.Millisecond)
	if err := chaos.Crash(ctx); err != nil {
		return err
	}
	fmt.Fprintln(w, "process 4 crashed mid-run")
	time.Sleep(10 * time.Millisecond)
	if err := chaos.Recover(ctx); err != nil {
		return err
	}
	fmt.Fprintln(w, "process 4 recovered")

	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	// Read the final state from the process that crashed: it catches up
	// through the protocol (and its reads are atomic like everyone's).
	kv4 := NewKV(chaos)
	for k := 0; k < 3; k++ {
		key := fmt.Sprintf("user:%d", k)
		val, err := kv4.Get(ctx, key)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s = %q (read at the recovered process)\n", key, val)
	}

	if err := c.Verify(); err != nil {
		return fmt.Errorf("atomicity verification failed: %w", err)
	}
	fmt.Fprintln(w, "all operations verified persistent-atomic")
	fmt.Fprintf(w, "latencies: put %v, get %v\n",
		c.WriteLatency().Mean.Round(time.Microsecond),
		c.ReadLatency().Mean.Round(time.Microsecond))
	return nil
}
