package shard

import (
	"fmt"
	"strings"
	"testing"

	"lauberhorn/internal/sim"
)

// node is a toy model: on every received frame it records the instant and
// echoes a frame back after a fixed turnaround, until quota is exhausted.
type node struct {
	s         *sim.Sim
	name      string
	log       *[]string
	send      func(at sim.Time, frame []byte) // boundary send (serial or channel)
	lookahead sim.Time
	quota     int
	received  int
}

func (n *node) deliver(frame []byte) {
	*n.log = append(*n.log, fmt.Sprintf("%s@%v:%s", n.name, n.s.Now(), frame))
	n.received++
	if n.quota > 0 {
		n.quota--
		// Echo after a 3ns think time; arrival is lookahead past tx.
		at := n.s.Now() + 3*sim.Nanosecond + n.lookahead
		n.send(at, []byte(n.name))
	}
}

// buildPingPong wires two nodes across a boundary of the given lookahead,
// in either one shared sim (serial) or two sims under an executor
// (sharded), and returns the nodes, the run function, and the log.
func buildPingPong(serial bool, lookahead sim.Time, quota int) (a, b *node, run func(sim.Time), log *[]string) {
	log = new([]string)
	if serial {
		s := sim.New(1)
		a = &node{s: s, name: "a", log: log, lookahead: lookahead, quota: quota}
		b = &node{s: s, name: "b", log: log, lookahead: lookahead, quota: quota}
		// Serial boundary: keyed deliveries with per-direction counters,
		// exactly what a serial fabric link does.
		var seqAB, seqBA uint64
		a.send = func(at sim.Time, f []byte) {
			s.AtKeyed(at, sim.KeyedBase|0<<40|seqAB, "xshard-deliver", func() { b.deliver(f) })
			seqAB++
		}
		b.send = func(at sim.Time, f []byte) {
			s.AtKeyed(at, sim.KeyedBase|1<<40|seqBA, "xshard-deliver", func() { a.deliver(f) })
			seqBA++
		}
		run = func(t sim.Time) { s.RunUntil(t) }
		s.At(0, "kick", func() { a.send(lookahead, []byte("kick")) })
		return a, b, run, log
	}
	sa, sb := sim.New(1), sim.New(1)
	a = &node{s: sa, name: "a", log: log, lookahead: lookahead, quota: quota}
	b = &node{s: sb, name: "b", log: log, lookahead: lookahead, quota: quota}
	ab := NewChannel(sim.KeyedBase|0<<40, lookahead, sb, b.deliver)
	ba := NewChannel(sim.KeyedBase|1<<40, lookahead, sa, a.deliver)
	a.send = ab.Send
	b.send = ba.Send
	x := NewExecutor([]*sim.Sim{sa, sb})
	x.AddChannel(ab)
	x.AddChannel(ba)
	run = x.RunUntil
	sa.At(0, "kick", func() { a.send(lookahead, []byte("kick")) })
	return a, b, run, log
}

// TestExecutorMatchesSerial pins the core determinism property on a toy
// model: the sharded run's delivery log is identical to the serial run's.
func TestExecutorMatchesSerial(t *testing.T) {
	const lookahead = 650 * sim.Nanosecond
	const horizon = 100 * sim.Microsecond
	_, _, runS, logS := buildPingPong(true, lookahead, 40)
	runS(horizon)
	a, b, runP, logP := buildPingPong(false, lookahead, 40)
	runP(horizon)

	if got, want := strings.Join(*logP, "\n"), strings.Join(*logS, "\n"); got != want {
		t.Fatalf("sharded log differs from serial:\nserial:\n%s\nsharded:\n%s", want, got)
	}
	if a.received == 0 || b.received == 0 {
		t.Fatalf("no traffic crossed the boundary: a=%d b=%d", a.received, b.received)
	}
	if a.s.Now() != horizon || b.s.Now() != horizon {
		t.Fatalf("clocks not advanced to horizon: a=%v b=%v", a.s.Now(), b.s.Now())
	}
}

// TestExecutorResumable verifies RunUntil can be called repeatedly with
// increasing targets (the RunMeasured warm/measure/drain pattern) and
// still matches one serial run of the same horizon.
func TestExecutorResumable(t *testing.T) {
	const lookahead = 650 * sim.Nanosecond
	_, _, runS, logS := buildPingPong(true, lookahead, 200)
	runS(300 * sim.Microsecond)
	_, _, runP, logP := buildPingPong(false, lookahead, 200)
	runP(5 * sim.Microsecond)
	runP(120 * sim.Microsecond)
	runP(300 * sim.Microsecond)
	if got, want := strings.Join(*logP, "\n"), strings.Join(*logS, "\n"); got != want {
		t.Fatalf("resumed sharded log differs from serial")
	}
}

// TestExecutorNoChannels verifies the degenerate case: with no registered
// boundaries the shards run independently to the target.
func TestExecutorNoChannels(t *testing.T) {
	sa, sb := sim.New(1), sim.New(2)
	fired := 0
	sa.At(sim.Microsecond, "a", func() { fired++ })
	sb.At(2*sim.Microsecond, "b", func() { fired++ })
	x := NewExecutor([]*sim.Sim{sa, sb})
	x.RunUntil(5 * sim.Microsecond)
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
	if sa.Now() != 5*sim.Microsecond || sb.Now() != 5*sim.Microsecond {
		t.Fatalf("clocks not advanced: a=%v b=%v", sa.Now(), sb.Now())
	}
}

// TestExecutorForwardsPanic verifies a model panic inside a shard window
// surfaces on the driving goroutine, as serial execution would.
func TestExecutorForwardsPanic(t *testing.T) {
	sa, sb := sim.New(1), sim.New(2)
	ab := NewChannel(sim.KeyedBase, sim.Microsecond, sb, func([]byte) {})
	sa.At(sim.Nanosecond, "boom", func() { panic("boom") })
	x := NewExecutor([]*sim.Sim{sa, sb})
	x.AddChannel(ab)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was not forwarded")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	x.RunUntil(sim.Millisecond)
}

// TestChannelLookaheadEnforced sends a frame due only half the channel's
// lookahead after its send instant. The window it was sent in already
// ran past that instant, so the barrier must refuse the frame rather
// than deliver it out of order.
func TestChannelLookaheadEnforced(t *testing.T) {
	sa, sb := sim.New(1), sim.New(2)
	var delivered []sim.Time
	ab := NewChannel(sim.KeyedBase, 100*sim.Nanosecond, sb, func([]byte) {
		delivered = append(delivered, sb.Now())
	})
	sa.At(0, "early", func() { ab.Send(sa.Now()+50*sim.Nanosecond, []byte("early")) })
	x := NewExecutor([]*sim.Sim{sa, sb})
	x.AddChannel(ab)
	defer func() {
		const want = "shard: frame due at 50ns on a channel with lookahead 100ns, before the end 100ns of the window it was sent in"
		if r := recover(); r == nil {
			t.Fatalf("no panic; the frame was delivered at %v", delivered)
		} else if fmt.Sprint(r) != want {
			t.Fatalf("panic %q, want %q", r, want)
		}
	}()
	x.RunUntil(sim.Microsecond)
}

// TestChannelValidation pins the constructor guards.
func TestChannelValidation(t *testing.T) {
	s := sim.New(1)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"low base", func() { NewChannel(7, sim.Microsecond, s, func([]byte) {}) }},
		{"zero lookahead", func() { NewChannel(sim.KeyedBase, 0, s, func([]byte) {}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewChannel did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}
