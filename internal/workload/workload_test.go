package workload

import (
	"math"
	"testing"
	"testing/quick"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

func TestFixedSize(t *testing.T) {
	d := FixedSize{N: 64}
	r := sim.NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 64 {
			t.Fatal("FixedSize varied")
		}
	}
	if d.String() == "" {
		t.Error("empty String")
	}
}

func TestUniformSize(t *testing.T) {
	d := UniformSize{Min: 10, Max: 20}
	r := sim.NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < 10 || v > 20 {
			t.Fatalf("out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 11 {
		t.Errorf("saw %d distinct values, want 11", len(seen))
	}
	if (UniformSize{Min: 5, Max: 5}).Sample(r) != 5 {
		t.Error("degenerate uniform")
	}
}

func TestLogNormalSizeClamped(t *testing.T) {
	d := LogNormalSize{Mu: 5, Sigma: 1.5, Min: 16, Max: 1400}
	r := sim.NewRNG(1)
	for i := 0; i < 5000; i++ {
		v := d.Sample(r)
		if v < 16 || v > 1400 {
			t.Fatalf("clamp failed: %d", v)
		}
	}
}

func TestMixtureWeights(t *testing.T) {
	m := NewMixtureSize("m", []int{10, 20, 30}, []float64{1, 2, 1})
	r := sim.NewRNG(3)
	counts := map[int]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[m.Sample(r)]++
	}
	if math.Abs(float64(counts[20])/n-0.5) > 0.02 {
		t.Errorf("weight-2 size got %d/%d", counts[20], n)
	}
	if math.Abs(float64(counts[10])/n-0.25) > 0.02 {
		t.Errorf("weight-1 size got %d/%d", counts[10], n)
	}
}

func TestMixturePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMixtureSize("x", nil, nil) },
		func() { NewMixtureSize("x", []int{1}, []float64{-1}) },
		func() { NewMixtureSize("x", []int{1}, []float64{0}) },
		func() { NewMixtureSize("x", []int{1, 2}, []float64{1}) },
	} {
		if !panics(f) {
			t.Error("bad mixture accepted")
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return
}

func TestCloudRPCMajoritySmall(t *testing.T) {
	// The paper's premise [23]: the great majority of RPCs are small.
	m := CloudRPC()
	r := sim.NewRNG(5)
	small := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if m.Sample(r) <= 512 {
			small++
		}
	}
	if frac := float64(small) / n; frac < 0.85 {
		t.Errorf("only %.0f%% of cloud-RPC sizes ≤ 512B", frac*100)
	}
}

func TestPoissonMean(t *testing.T) {
	p := RatePerSec(100000) // mean 10us
	r := sim.NewRNG(7)
	var sum sim.Time
	const n = 100000
	for i := 0; i < n; i++ {
		sum += p.Next(r)
	}
	mean := float64(sum) / n
	want := float64(10 * sim.Microsecond)
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("poisson mean %.0f, want %.0f", mean, want)
	}
}

func TestRatePerSecPanics(t *testing.T) {
	if !panics(func() { RatePerSec(0) }) {
		t.Error("zero rate accepted")
	}
}

func TestMMPPBursty(t *testing.T) {
	m := &MMPP{
		CalmMean: 100 * sim.Microsecond, HotMean: 2 * sim.Microsecond,
		CalmPeriod: 10 * sim.Millisecond, HotPeriod: 2 * sim.Millisecond,
	}
	r := sim.NewRNG(9)
	var gaps []sim.Time
	for i := 0; i < 20000; i++ {
		gaps = append(gaps, m.Next(r))
	}
	// Coefficient of variation must exceed a pure Poisson's (~1).
	var sum, sq float64
	for _, g := range gaps {
		sum += float64(g)
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		d := float64(g) - mean
		sq += d * d
	}
	cv := math.Sqrt(sq/float64(len(gaps))) / mean
	if cv < 1.2 {
		t.Errorf("MMPP CV %.2f; not bursty", cv)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(64, 1.1)
	r := sim.NewRNG(11)
	counts := make([]int, 64)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] < counts[10]*3 {
		t.Errorf("zipf head %d vs rank-10 %d: not skewed", counts[0], counts[10])
	}
	// Probabilities sum to 1.
	var total float64
	for i := 0; i < 64; i++ {
		total += z.Prob(i)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("zipf probs sum to %v", total)
	}
}

func TestZipfPanics(t *testing.T) {
	if !panics(func() { NewZipf(0, 1) }) {
		t.Error("zipf n=0 accepted")
	}
}

// Property: mixture samples are always members of the size set.
func TestMixtureMembershipProperty(t *testing.T) {
	f := func(seed uint64) bool {
		m := CloudRPC()
		r := sim.NewRNG(seed)
		valid := map[int]bool{}
		for _, s := range m.Sizes {
			valid[s] = true
		}
		for i := 0; i < 100; i++ {
			if !valid[m.Sample(r)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// end-to-end: generator against a bypass echo server.
func genRig(t *testing.T) (*sim.Sim, *Generator) {
	t.Helper()
	s := sim.New(99)
	k := kernel.New(s, 1, 2.5, kernel.DefaultCosts())
	nic := nicdma.New(s, nicdma.DefaultConfig())
	link := fabric.NewLink(s, fabric.Net100G)

	serverEP := wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}, Port: 9000}
	clientEP := wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}}

	reg := rpc.NewRegistry()
	reg.Register(&rpc.ServiceDesc{ID: 1, Name: "echo", Methods: []rpc.MethodDesc{{
		ID: 1, Handler: func(req []byte) ([]byte, sim.Time) { return req, 0 },
	}}})

	gen := NewGenerator(s, Config{
		Client:   clientEP,
		Server:   serverEP,
		Targets:  []Target{{Port: 9000, Service: 1, Method: 1, Size: FixedSize{N: 40}}},
		Arrivals: RatePerSec(50000),
	}, link, 0)
	link.Attach(gen, nic)
	nic.AttachLink(link, 1)

	// bypass-style worker without importing bypass (avoid cycle): use the
	// kstack-free approach — simple poller.
	q := nic.Queue(0)
	q.DisableIRQ()
	var loop func(tc *kernel.TC)
	loop = func(tc *kernel.TC) {
		d := q.Poll()
		if d == nil {
			tc.SpinWait(func(c func()) { q.OnArrival(c) },
				func() { loop(tc) }, func(tc2 *kernel.TC) { loop(tc2) })
			return
		}
		m, err := rpc.Decode(d.Payload)
		if err != nil {
			loop(tc)
			return
		}
		tc.RunUser(500*sim.Nanosecond, func() {
			resp := rpc.EncodeResponse(m.Service, m.Method, m.ID, rpc.StatusOK, m.Body)
			frame, _ := wire.BuildUDP(serverEP,
				wire.Endpoint{MAC: d.Eth.Src, IP: d.IP.Src, Port: d.UDP.SrcPort}, 1, resp)
			nic.Transmit(frame)
			loop(tc)
		})
	}
	k.SpawnPinned(nil, "srv", 0, loop)
	return s, gen
}

func TestGeneratorOpenLoop(t *testing.T) {
	s, gen := genRig(t)
	gen.Start(10 * sim.Millisecond)
	s.RunUntil(20 * sim.Millisecond)
	// ~500 requests at 50krps over 10ms.
	if gen.Sent < 400 || gen.Sent > 620 {
		t.Errorf("sent %d, want ~500", gen.Sent)
	}
	if gen.Received != gen.Sent {
		t.Errorf("received %d of %d", gen.Received, gen.Sent)
	}
	if gen.Outstanding() != 0 {
		t.Errorf("%d outstanding at quiescence", gen.Outstanding())
	}
	if gen.Latency.Count() != gen.Received {
		t.Errorf("histogram has %d samples", gen.Latency.Count())
	}
	if p50 := gen.Latency.Percentile(0.5); p50 < int64(2*sim.Microsecond) || p50 > int64(50*sim.Microsecond) {
		t.Errorf("p50 %v implausible", sim.Time(p50))
	}
}

func TestGeneratorStop(t *testing.T) {
	s, gen := genRig(t)
	gen.Start(0)
	s.RunUntil(2 * sim.Millisecond)
	gen.Stop()
	sent := gen.Sent
	s.RunUntil(10 * sim.Millisecond)
	if gen.Sent > sent+1 {
		t.Errorf("generator kept sending after Stop: %d -> %d", sent, gen.Sent)
	}
}

func TestClosedLoop(t *testing.T) {
	s := sim.New(13)
	k := kernel.New(s, 1, 2.5, kernel.DefaultCosts())
	nic := nicdma.New(s, nicdma.DefaultConfig())
	link := fabric.NewLink(s, fabric.Net100G)
	serverEP := wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}, Port: 9000}
	clientEP := wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}}

	cl := NewClosedLoop(s, Config{
		Client:  clientEP,
		Server:  serverEP,
		Targets: []Target{{Port: 9000, Service: 1, Method: 1, Size: FixedSize{N: 32}}},
	}, link, 0, 4, 0)
	link.Attach(cl, nic)
	nic.AttachLink(link, 1)

	q := nic.Queue(0)
	q.DisableIRQ()
	var loop func(tc *kernel.TC)
	loop = func(tc *kernel.TC) {
		d := q.Poll()
		if d == nil {
			tc.SpinWait(func(c func()) { q.OnArrival(c) },
				func() { loop(tc) }, func(tc2 *kernel.TC) { loop(tc2) })
			return
		}
		m, _ := rpc.Decode(d.Payload)
		tc.RunUser(sim.Microsecond, func() {
			resp := rpc.EncodeResponse(m.Service, m.Method, m.ID, rpc.StatusOK, nil)
			frame, _ := wire.BuildUDP(serverEP,
				wire.Endpoint{MAC: d.Eth.Src, IP: d.IP.Src, Port: d.UDP.SrcPort}, 1, resp)
			nic.Transmit(frame)
			loop(tc)
		})
	}
	k.SpawnPinned(nil, "srv", 0, loop)

	cl.Start()
	s.RunUntil(10 * sim.Millisecond)
	cl.Stop()
	if cl.Received < 500 {
		t.Errorf("closed loop completed only %d requests in 10ms", cl.Received)
	}
	// Concurrency bound holds.
	if cl.Outstanding() > 4 {
		t.Errorf("outstanding %d > concurrency", cl.Outstanding())
	}
}

// TestClosedLoopDeliverDatagram: a response handed up already parsed,
// as a transport's receive half does, is recorded exactly as one the
// generator parses itself, and the closed loop sends its next request
// either way (its DeliverDatagram must shadow the embedded Generator's).
func TestClosedLoopDeliverDatagram(t *testing.T) {
	serverEP := wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}, Port: 9000}
	clientEP := wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}, Port: 10001}
	for _, viaDatagram := range []bool{false, true} {
		s := sim.New(1)
		link := fabric.NewLink(s, fabric.Net100G)
		cl := NewClosedLoop(s, Config{
			Client:  clientEP,
			Server:  serverEP,
			Targets: []Target{{Port: 9000, Service: 1, Method: 1, Size: FixedSize{N: 32}}},
		}, link, 0, 1, 0)
		link.Attach(cl, devNull{})
		cl.Start()
		s.RunUntil(sim.Microsecond)
		f, err := wire.BuildUDP(serverEP, clientEP, 1, rpc.EncodeResponse(1, 1, 1, rpc.StatusOK, nil))
		if err != nil {
			t.Fatal(err)
		}
		if viaDatagram {
			var d wire.Datagram
			if err := wire.ParseUDPInto(f, &d); err != nil {
				t.Fatal(err)
			}
			cl.DeliverDatagram(f, &d)
		} else {
			cl.DeliverFrame(f)
		}
		if cl.Received != 1 || cl.Latency.Count() != 1 || cl.Sent != 2 {
			t.Fatalf("viaDatagram=%v: received %d, recorded %d, sent %d; want 1, 1, 2",
				viaDatagram, cl.Received, cl.Latency.Count(), cl.Sent)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	s := sim.New(1)
	link := fabric.NewLink(s, fabric.Net100G)
	if !panics(func() { NewGenerator(s, Config{}, link, 0) }) {
		t.Error("no targets accepted")
	}
	cfg := Config{Targets: []Target{{}}}
	if !panics(func() { NewGenerator(s, cfg, link, 0).Start(0) }) {
		t.Error("open loop without arrivals accepted")
	}
	if !panics(func() { NewClosedLoop(s, cfg, link, 0, 0, 0) }) {
		t.Error("zero concurrency accepted")
	}
}

func TestChurnRotatesHotSet(t *testing.T) {
	s := sim.New(3)
	link := fabric.NewLink(s, fabric.Net100G)
	gen := NewGenerator(s, Config{
		Client:        wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}},
		Server:        wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}},
		Targets:       targetsN(8),
		Popularity:    NewZipf(8, 1.5), // rank 0 dominates
		Arrivals:      RatePerSec(1_000_000),
		ChurnInterval: 5 * sim.Millisecond,
	}, link, 0)
	link.Attach(gen, devNull{})

	// Sample which target is hottest in each 5ms epoch.
	hot := map[int]bool{}
	for epoch := 0; epoch < 6; epoch++ {
		counts := make([]int, 8)
		for i := 0; i < 500; i++ {
			gen.SendOne()
		}
		for id, p := range gen.inflight {
			counts[p.target]++
			delete(gen.inflight, id)
		}
		max, argmax := 0, 0
		for i, c := range counts {
			if c > max {
				max, argmax = c, i
			}
		}
		hot[argmax] = true
		s.RunUntil(s.Now() + 5*sim.Millisecond)
	}
	if len(hot) < 2 {
		t.Fatalf("hot target never rotated across epochs: %v", hot)
	}
	if gen.ChurnEpochs() < 2 {
		t.Fatalf("churn epochs %d", gen.ChurnEpochs())
	}
}

func TestNoChurnStableMapping(t *testing.T) {
	s := sim.New(3)
	link := fabric.NewLink(s, fabric.Net100G)
	gen := NewGenerator(s, Config{
		Client:     wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 1}, IP: wire.IP{10, 0, 0, 1}},
		Server:     wire.Endpoint{MAC: wire.MAC{2, 0, 0, 0, 0, 2}, IP: wire.IP{10, 0, 0, 2}},
		Targets:    targetsN(4),
		Popularity: NewZipf(4, 2.0),
		Arrivals:   RatePerSec(1000),
	}, link, 0)
	link.Attach(gen, devNull{})
	counts := make([]int, 4)
	for i := 0; i < 2000; i++ {
		gen.SendOne()
	}
	for _, p := range gen.inflight {
		counts[p.target]++
	}
	// Without churn, rank 0 = target 0 stays hottest.
	if counts[0] <= counts[1] || counts[0] <= counts[2] {
		t.Fatalf("stable mapping broken: %v", counts)
	}
	if gen.ChurnEpochs() != 0 {
		t.Fatal("churn epochs counted without churn")
	}
}

func targetsN(n int) []Target {
	out := make([]Target, n)
	for i := range out {
		out[i] = Target{Port: 9000 + uint16(i), Service: uint32(i + 1), Method: 1, Size: FixedSize{N: 32}}
	}
	return out
}

type devNull struct{}

func (devNull) DeliverFrame([]byte) {}
