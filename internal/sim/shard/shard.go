// Package shard runs one logical simulation as a set of cooperating
// sim.Sim instances synchronized by conservative time windows.
//
// The partition follows the fabric: each leaf switch plus its attached
// hosts, NICs, and access links lives on one shard, and the spine/core
// tier lives on a hub shard. Every cross-shard frame traverses at least
// one inter-switch link, whose propagation + switching delay is a
// guaranteed lower bound on how far in the future the frame can take
// effect on the far side. That bound (the lookahead, classic conservative
// PDES) lets every shard run a window [T, T+W) without observing its
// neighbours: any frame sent during the window arrives at or after T+W.
//
// Between windows a single coordinator drains the per-link-direction
// Channels and injects the queued frames into the receiving shard's event
// queue as keyed events (sim.AtKeyed). The key — direction ID and
// per-direction frame counter — is assigned identically by serial links,
// so the merged (at, key) order at every shard is the serial order
// restricted to that shard, and serial and sharded runs stay
// byte-identical. See DESIGN.md "Sharded execution" for the full
// determinism argument.
//
// This package is the one place in internal/ outside the experiment
// runner where goroutines and channel synchronization are sanctioned
// (enforced by lhlint's goroutine analyzer): worker goroutines only touch
// their own Sim between a work hand-off and the matching done hand-off,
// and the coordinator only touches the sims while every worker is parked,
// so all access is ordered by channel happens-before edges.
package shard

import (
	"fmt"

	"lauberhorn/internal/fifo"
	"lauberhorn/internal/sim"
)

// msg is one frame in flight across a shard boundary: the instant it
// takes effect on the far side, its merge key, and the frame bytes
// (ownership transfers with the frame; see wire.FramePool).
type msg struct {
	at    sim.Time
	key   uint64
	frame []byte
}

// Channel carries frames in one direction across one shard boundary —
// one inter-switch link side. The sending shard appends during its
// window; the coordinator drains at the barrier and schedules a keyed
// delivery event per frame on the receiving shard's Sim. Deliveries pop
// in FIFO order, which (at, key) already guarantees: the key embeds a
// per-direction counter that increases with every send.
type Channel struct {
	base      uint64   // sim.KeyedBase | direction ID bits
	seq       uint64   // per-direction frame counter, mirrors the serial link's
	lookahead sim.Time // PropDelay + SwitchDelay of the underlying link

	out []msg // sender-side, drained at each barrier

	recv      *sim.Sim
	deliver   func([]byte)       // receiving link side's delivery sink
	deliverEv func()             // prebound event callback: pop head, deliver
	q         fifo.Queue[[]byte] // receiver-side FIFO of injected frames
}

// NewChannel returns a channel with the given key base (which must carry
// sim.KeyedBase), direction lookahead (must be positive: a zero-lookahead
// link admits no conservative window), receiving Sim, and delivery sink.
func NewChannel(base uint64, lookahead sim.Time, recv *sim.Sim, deliver func([]byte)) *Channel {
	if base < sim.KeyedBase {
		panic("shard: channel key base below sim.KeyedBase")
	}
	if lookahead <= 0 {
		panic("shard: channel lookahead must be positive")
	}
	c := &Channel{base: base, lookahead: lookahead, recv: recv, deliver: deliver}
	c.deliverEv = func() { c.deliver(c.q.Pop()) }
	return c
}

// Send queues a frame to take effect at instant `at` on the receiving
// shard. Called from the sending shard's window; `at` must be at least
// the channel's lookahead past the current window start, which the
// fabric guarantees by construction (at = txEnd + PropDelay +
// SwitchDelay with txEnd at or after now). The barrier checks it: a
// frame due before the end of the window it was sent in panics there.
func (c *Channel) Send(at sim.Time, frame []byte) {
	c.out = append(c.out, msg{at: at, key: c.base | c.seq, frame: frame})
	c.seq++
}

// inject is the barrier-time drain: schedule every queued frame as a
// keyed delivery event on the receiving Sim. windowEnd is the end of the
// window the frames were sent in. A frame due before it breaks Send's
// lookahead promise: the receiving shard may already have run past its
// instant, so delivering it would reorder events, and inject panics
// instead. Coordinator-only.
func (c *Channel) inject(windowEnd sim.Time) {
	for i := range c.out {
		m := &c.out[i]
		if m.at < windowEnd {
			panic(fmt.Sprintf("shard: frame due at %v on a channel with lookahead %v, before the end %v of the window it was sent in",
				m.at, c.lookahead, windowEnd))
		}
		c.q.Push(m.frame)
		c.recv.AtKeyed(m.at, m.key, "xshard-deliver", c.deliverEv)
		m.frame = nil
	}
	c.out = c.out[:0]
}

// Executor advances a group of Sims in lock-step conservative windows.
// Construct with NewExecutor, register every boundary Channel, then call
// RunUntil. Not safe for concurrent use; one goroutine drives it.
type Executor struct {
	sims   []*sim.Sim
	chans  []*Channel
	window sim.Time // min lookahead across channels
}

// NewExecutor returns an executor over the given Sims (every shard,
// including the hub). Channels are registered with AddChannel.
func NewExecutor(sims []*sim.Sim) *Executor {
	return &Executor{sims: sims, window: sim.Never}
}

// AddChannel registers a boundary channel; the executor's window width is
// the minimum lookahead across all of them.
func (x *Executor) AddChannel(c *Channel) {
	x.chans = append(x.chans, c)
	if c.lookahead < x.window {
		x.window = c.lookahead
	}
}

// Window reports the conservative window width (min channel lookahead),
// or sim.Never when no channel is registered.
func (x *Executor) Window() sim.Time { return x.window }

// doneMsg is a worker's window-completion report.
type doneMsg struct {
	idx int
	pan any // recovered panic, re-raised by the coordinator
}

// runWorker is one shard's goroutine: park on the work channel, run the
// shard's events strictly before each received bound, report done. A
// model panic is captured and forwarded so the coordinator can re-raise
// it on the driving goroutine (where the experiment runner's recover
// lives), exactly as a serial run would.
func runWorker(s *sim.Sim, work <-chan sim.Time, done chan<- doneMsg, idx int) {
	for bound := range work {
		m := doneMsg{idx: idx}
		func() {
			defer func() {
				if r := recover(); r != nil {
					m.pan = r
				}
			}()
			s.RunBefore(bound)
		}()
		done <- m
	}
}

// RunUntil fires all events with timestamps at or before t across every
// shard, then advances every shard clock to t — the sharded equivalent of
// sim.Sim.RunUntil. Windows are [B, min(B+W, t+1)) where B is the
// earliest pending instant across shards and W the min lookahead; frames
// queued on channels during a window are injected at the barrier before
// the next window starts, so every cross-shard frame is an event on the
// receiving shard before that shard can reach the frame's instant.
func (x *Executor) RunUntil(t sim.Time) {
	if len(x.chans) == 0 {
		// No boundaries: shards are independent; run them in order.
		for _, s := range x.sims {
			s.RunUntil(t)
		}
		return
	}
	work := make([]chan sim.Time, len(x.sims))
	done := make(chan doneMsg, len(x.sims))
	for i, s := range x.sims {
		work[i] = make(chan sim.Time, 1)
		go runWorker(s, work[i], done, i)
	}
	defer func() {
		for _, w := range work {
			close(w)
		}
	}()
	var end sim.Time // end of the window just run; zero before the first
	for {
		for _, c := range x.chans {
			c.inject(end)
		}
		next := sim.Never
		for _, s := range x.sims {
			if at := s.NextAt(); at < next {
				next = at
			}
		}
		if next > t {
			break
		}
		end = next + x.window
		if end > t {
			end = t + 1
		}
		dispatched := 0
		for i, s := range x.sims {
			if s.NextAt() < end {
				work[i] <- end
				dispatched++
			}
		}
		var pan any
		panIdx := len(x.sims)
		for ; dispatched > 0; dispatched-- {
			m := <-done
			if m.pan != nil && m.idx < panIdx {
				pan, panIdx = m.pan, m.idx
			}
		}
		if pan != nil {
			// Re-raise the lowest-indexed shard's panic so the failure is
			// deterministic regardless of worker completion order.
			panic(fmt.Sprintf("shard %d: %v", panIdx, pan))
		}
	}
	for _, s := range x.sims {
		s.AdvanceTo(t)
	}
}
