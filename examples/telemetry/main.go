// telemetry: a fault-tolerant sensor feed on the single-writer regular
// register of §VI. One sensor process publishes readings; many consumers
// poll them. Regularity is exactly the contract a telemetry feed needs —
// a consumer never sees garbage, never sees a value older than the last
// completed publish, and concurrent polls may briefly disagree about an
// in-flight publish, which nobody minds.
//
// What the weaker register buys (the paper's concluding trade-off): a
// publish costs one round and one causal log (vs. two rounds and two logs
// for the persistent-atomic write), and a poll costs one round and never
// logs — "in a system where logging is very expensive ... it does not make
// sense to emulate safe or even regular memory" only holds because atomic
// reads are also log-free when quiescent; when the writer publishes
// continuously, the regular register's polls stay log-free while atomic
// reads would keep paying the write-back log.
//
//	go run ./examples/telemetry
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sync"
	"time"

	"recmem"
)

// reading is a sensor sample.
type reading struct {
	seq  uint32
	temp float64
}

func (r reading) encode() []byte {
	buf := make([]byte, 12)
	binary.BigEndian.PutUint32(buf, r.seq)
	binary.BigEndian.PutUint64(buf[4:], math.Float64bits(r.temp))
	return buf
}

func decode(b []byte) (reading, bool) {
	if len(b) != 12 {
		return reading{}, false
	}
	return reading{
		seq:  binary.BigEndian.Uint32(b),
		temp: math.Float64frombits(binary.BigEndian.Uint64(b[4:])),
	}, true
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

	c, err := recmem.New(5, recmem.RegularRegister,
		recmem.WithRetransmitEvery(5*time.Millisecond))
	if err != nil {
		return err
	}
	defer c.Close()

	const publishes = 20
	sensor := c.Process(0)            // the designated single writer
	feed := sensor.Register("sensor") // the publish handle, resolved once

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 3)

	// Consumers on three other processes poll continuously and check that
	// the sequence numbers they observe never regress by more than the one
	// in-flight publish (regularity: last completed or concurrent).
	// Consumer 3 polls with safe reads (WithConsistency(Safety)): a §VI
	// safe read is served by the writer alone — 2 messages instead of a
	// majority fan-out — and blocks while the sensor is down instead of
	// degrading.
	for _, p := range []int{1, 2, 3} {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			poll := c.Process(p).Register("sensor")
			var opts []recmem.OpOption
			if p == 3 {
				opts = append(opts, recmem.WithConsistency(recmem.Safety))
			}
			var lastSeen uint32
			polls := 0
			for {
				select {
				case <-stop:
					fmt.Fprintf(w, "consumer %d: %d polls, last seq %d\n", p, polls, lastSeen)
					return
				default:
				}
				raw, err := poll.Read(ctx, opts...)
				if err != nil {
					errs <- fmt.Errorf("consumer %d: %w", p, err)
					return
				}
				if len(raw) == 0 {
					continue // nothing published yet
				}
				r, ok := decode(raw)
				if !ok {
					errs <- fmt.Errorf("consumer %d: corrupt reading", p)
					return
				}
				// Regularity bound: a poll may lag the newest publish by at
				// most the one concurrent write, so the observed sequence
				// may regress by at most 1 relative to our own history.
				if r.seq+1 < lastSeen {
					errs <- fmt.Errorf("consumer %d: regression %d -> %d", p, lastSeen, r.seq)
					return
				}
				if r.seq > lastSeen {
					lastSeen = r.seq
				}
				polls++
			}
		}(p)
	}

	// The sensor publishes, surviving a crash in the middle of the run.
	for i := uint32(1); i <= publishes; i++ {
		r := reading{seq: i, temp: 20 + 5*math.Sin(float64(i)/3)}
		if err := feed.Write(ctx, r.encode()); err != nil {
			return fmt.Errorf("publish %d: %w", i, err)
		}
		if i == publishes/2 {
			if err := sensor.Crash(ctx); err != nil {
				return err
			}
			fmt.Fprintln(w, "sensor crashed mid-run")
			if err := sensor.Recover(ctx); err != nil {
				return err
			}
			fmt.Fprintln(w, "sensor recovered, publishing resumes")
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	// Final value is the last publish, at every consumer.
	for _, p := range []int{1, 2, 3, 4} {
		raw, err := c.Process(p).Read(ctx, "sensor")
		if err != nil {
			return err
		}
		r, _ := decode(raw)
		if r.seq != publishes {
			return fmt.Errorf("consumer %d ended at seq %d, want %d", p, r.seq, publishes)
		}
	}
	fmt.Fprintf(w, "all consumers converged on seq %d\n", publishes)

	if err := c.Verify(); err != nil {
		return fmt.Errorf("regularity verification failed: %w", err)
	}
	fmt.Fprintln(w, "history verified: single-writer regularity holds")
	fmt.Fprintf(w, "publish latency %v, poll latency %v\n",
		c.WriteLatency().Mean.Round(time.Microsecond),
		c.ReadLatency().Mean.Round(time.Microsecond))
	return nil
}
