package main

import (
	"fmt"
	"time"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/sim/shard"
	"lauberhorn/internal/wire"
	"lauberhorn/internal/workload"
)

// The probes time one public hot call of a layer in isolation, so a
// per-layer change shows even where a workload's total hides it.

var (
	probeSrc = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 2, 1}, IP: wire.IP{10, 0, 2, 1}, Port: 40000}
	probeDst = wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 1, 1}, IP: wire.IP{10, 0, 1, 1}, Port: 9000}
)

// runProbes runs every probe for about budget each and returns their
// results in ns per operation.
func runProbes(budget time.Duration) (map[string]float64, []error) {
	probes := []struct {
		name string
		fn   func(time.Duration) (float64, error)
	}{
		{"sim.probe.fire_ns", probeSimFire},
		{"shard.probe.window_ns", probeShardWindow},
		{"fabric.probe.hop_ns", probeFabricHop},
		{"wire.probe.frame_ns_64", func(b time.Duration) (float64, error) { return probeFrame(b, 64) }},
		{"wire.probe.frame_ns_4096", func(b time.Duration) (float64, error) { return probeFrame(b, 4096) }},
		{"rpc.probe.codec_ns", probeCodec},
	}
	out := map[string]float64{}
	var errs []error
	for _, p := range probes {
		v, err := p.fn(budget)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.name, err))
		}
		out[p.name] = v
	}
	return out, errs
}

// timeBatches calls batch(n) until budget has passed (at least five
// times) and returns the median wall time per operation in ns.
func timeBatches(budget time.Duration, n int, batch func(n int) error) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		if err := batch(n); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return quantileOf(per, 0.5), nil
}

// probeSimFire times sim.After plus the event's firing under Run.
func probeSimFire(budget time.Duration) (float64, error) {
	s := sim.New(1)
	fired := 0
	fn := func() { fired++ }
	return timeBatches(budget, 4096, func(n int) error {
		before := fired
		for i := 0; i < n; i++ {
			s.After(sim.Time(i%64), "probe", fn)
		}
		s.Run()
		if fired-before != n {
			return fmt.Errorf("%d of %d events fired", fired-before, n)
		}
		return nil
	})
}

// probeShardWindow times one conservative window of shard.Executor over
// two idle shards and a hub (the shape of a Clos split with Shards: 2),
// joined by one channel at the Clos uplinks' lookahead. Each Sim holds a
// no-op tick per window, so every window dispatches to every shard: the
// time is the executor's per-window barrier cost.
func probeShardWindow(budget time.Duration) (float64, error) {
	la := fabric.Net100G.Lookahead()
	sims := []*sim.Sim{sim.New(1), sim.New(1), sim.New(1)}
	x := shard.NewExecutor(sims)
	x.AddChannel(shard.NewChannel(sim.KeyedBase, la, sims[len(sims)-1], func([]byte) {}))
	// One counter per Sim: the shards run on their own goroutines.
	ticks := make([]int, len(sims))
	for i, s := range sims {
		var tick func()
		tick = func() {
			ticks[i]++
			s.After(la, "probe-tick", tick)
		}
		s.After(0, "probe-tick", tick)
	}
	x.RunUntil(0)
	var now sim.Time
	return timeBatches(budget, 256, func(n int) error {
		before := append([]int(nil), ticks...)
		now += sim.Time(n) * la
		x.RunUntil(now)
		for i := range ticks {
			if got := ticks[i] - before[i]; got != n {
				return fmt.Errorf("Sim %d ticked %d times in %d windows", i, got, n)
			}
		}
		return nil
	})
}

// frameSink counts the frames a link delivers to it.
type frameSink struct{ frames int }

func (k *frameSink) DeliverFrame([]byte) { k.frames++ }

// probeFabricHop times a 64 B frame through Link -> Switch -> Link.
func probeFabricHop(budget time.Duration) (float64, error) {
	s := sim.New(1)
	sw := fabric.NewSwitch(s)
	in, out := fabric.NewLink(s, fabric.Net100G), fabric.NewLink(s, fabric.Net100G)
	src, dst := &frameSink{}, &frameSink{}
	in.Attach(src, sw.AttachPort(in, 1))
	out.Attach(dst, sw.AttachPort(out, 1))
	sw.Learn(probeDst.MAC, 1)
	frame, err := wire.BuildUDP(probeSrc, probeDst, 0, make([]byte, 64-wire.HeadersLen))
	if err != nil {
		return 0, err
	}
	return timeBatches(budget, 1024, func(n int) error {
		before := dst.frames
		for i := 0; i < n; i++ {
			in.Send(0, frame)
		}
		s.Run()
		if got := dst.frames - before; got != n {
			return fmt.Errorf("%d of %d frames delivered", got, n)
		}
		return nil
	})
}

// probeFrame times wire.BuildUDP plus wire.ParseUDPInto for a UDP
// payload of the given size.
func probeFrame(budget time.Duration, payloadLen int) (float64, error) {
	payload := make([]byte, payloadLen)
	var d wire.Datagram
	return timeBatches(budget, 256, func(n int) error {
		for i := 0; i < n; i++ {
			f, err := wire.BuildUDP(probeSrc, probeDst, uint16(i), payload)
			if err != nil {
				return err
			}
			if err := wire.ParseUDPInto(f, &d); err != nil {
				return err
			}
		}
		if len(d.Payload) != payloadLen {
			return fmt.Errorf("parsed %d payload bytes, built %d", len(d.Payload), payloadLen)
		}
		return nil
	})
}

// probeCodec times rpc.Encode plus rpc.DecodeInto over rig-mix's
// cloud-RPC body sizes.
func probeCodec(budget time.Duration) (float64, error) {
	rng := sim.NewRNG(1)
	sizes := workload.CloudRPC()
	bodies := make([][]byte, 1024)
	for i := range bodies {
		bodies[i] = make([]byte, sizes.Sample(rng))
	}
	var m rpc.Message
	return timeBatches(budget, len(bodies), func(n int) error {
		for i := 0; i < n; i++ {
			body := bodies[i%len(bodies)]
			enc := rpc.Encode(rpc.Header{Kind: rpc.KindRequest, Service: 1, Method: 1, ID: uint64(i)}, body)
			if err := rpc.DecodeInto(enc, &m); err != nil {
				return err
			}
			if len(m.Body) != len(body) {
				return fmt.Errorf("decoded %d body bytes, encoded %d", len(m.Body), len(body))
			}
		}
		return nil
	})
}
