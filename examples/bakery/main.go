// bakery: Lamport's bakery mutual-exclusion algorithm running on the
// emulated shared memory — the classic shared-memory algorithm executing
// unchanged over an asynchronous message-passing system, which is exactly
// the programming model the paper's emulations exist to provide.
//
// Each contender process takes a ticket in the shared registers choosing/i
// and number/i, enters the critical section in ticket order, and increments
// an unprotected shared counter (read, +1, write). Mutual exclusion makes
// the final counter equal the total number of entries; without it, lost
// updates would leave it short. The registers are atomic, which is what the
// bakery algorithm requires of its shared variables.
//
//	go run ./examples/bakery
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"sync"
	"time"

	"recmem"
)

// contender is one thread of the bakery algorithm, bound to one client.
// The bakery's waiting loops poll the same registers over and over, so the
// contender holds first-class Register handles: each register's dispatch
// resolution happens once, not per poll — and because the contender is
// written against recmem.Client, the identical code would run against a
// live TCP mesh through remote.Dial.
type contender struct {
	c    recmem.Client
	id   int
	n    int // number of contenders
	regs map[string]*recmem.Register
}

func newContender(c recmem.Client, id, n int) *contender {
	return &contender{c: c, id: id, n: n, regs: make(map[string]*recmem.Register)}
}

func register(prefix string, i int) string { return prefix + "/" + strconv.Itoa(i) }

// reg returns the cached handle for a register name.
func (c *contender) reg(name string) *recmem.Register {
	r := c.regs[name]
	if r == nil {
		r = c.c.Register(name)
		c.regs[name] = r
	}
	return r
}

func (c *contender) readInt(ctx context.Context, reg string) (int, error) {
	val, err := c.reg(reg).Read(ctx)
	if err != nil {
		return 0, err
	}
	if len(val) == 0 {
		return 0, nil
	}
	return strconv.Atoi(string(val))
}

func (c *contender) writeInt(ctx context.Context, reg string, v int) error {
	return c.reg(reg).Write(ctx, []byte(strconv.Itoa(v)))
}

// lock runs the bakery doorway and waiting protocol.
func (c *contender) lock(ctx context.Context) error {
	// Doorway: choosing[i] := 1; number[i] := 1 + max(number[*]).
	if err := c.writeInt(ctx, register("choosing", c.id), 1); err != nil {
		return err
	}
	max := 0
	for j := 0; j < c.n; j++ {
		n, err := c.readInt(ctx, register("number", j))
		if err != nil {
			return err
		}
		if n > max {
			max = n
		}
	}
	if err := c.writeInt(ctx, register("number", c.id), max+1); err != nil {
		return err
	}
	if err := c.writeInt(ctx, register("choosing", c.id), 0); err != nil {
		return err
	}
	// Wait for every other contender to either not hold a ticket or hold a
	// larger one (ties broken by id).
	for j := 0; j < c.n; j++ {
		if j == c.id {
			continue
		}
		for {
			ch, err := c.readInt(ctx, register("choosing", j))
			if err != nil {
				return err
			}
			if ch == 0 {
				break
			}
		}
		mine, err := c.readInt(ctx, register("number", c.id))
		if err != nil {
			return err
		}
		for {
			theirs, err := c.readInt(ctx, register("number", j))
			if err != nil {
				return err
			}
			if theirs == 0 || theirs > mine || (theirs == mine && j > c.id) {
				break
			}
		}
	}
	return nil
}

// unlock releases the ticket.
func (c *contender) unlock(ctx context.Context) error {
	return c.writeInt(ctx, register("number", c.id), 0)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, writing its report to w.
func run(w io.Writer) error {
	const (
		contenders = 3
		entries    = 4 // critical-section entries per contender
	)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	c, err := recmem.New(contenders, recmem.PersistentAtomic,
		recmem.WithRetransmitEvery(5*time.Millisecond))
	if err != nil {
		return err
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			me := newContender(c.Process(i), i, contenders)
			for e := 0; e < entries; e++ {
				if err := me.lock(ctx); err != nil {
					errs <- fmt.Errorf("contender %d lock: %w", i, err)
					return
				}
				// Critical section: an unprotected read-modify-write on the
				// shared counter. Only mutual exclusion makes this safe.
				v, err := me.readInt(ctx, "counter")
				if err == nil {
					err = me.writeInt(ctx, "counter", v+1)
				}
				if err == nil {
					err = me.unlock(ctx)
				}
				if err != nil {
					errs <- fmt.Errorf("contender %d cs: %w", i, err)
					return
				}
				fmt.Fprintf(w, "contender %d finished entry %d (counter was %d)\n", i, e, v)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	final, err := newContender(c.Process(0), 0, contenders).readInt(ctx, "counter")
	if err != nil {
		return err
	}
	want := contenders * entries
	fmt.Fprintf(w, "final counter: %d (want %d)\n", final, want)
	if final != want {
		return fmt.Errorf("mutual exclusion violated: lost %d updates", want-final)
	}
	if err := c.Verify(); err != nil {
		return fmt.Errorf("atomicity verification failed: %w", err)
	}
	fmt.Fprintln(w, "bakery over message passing: mutual exclusion and atomicity verified")
	return nil
}
