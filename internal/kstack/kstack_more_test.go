package kstack

import (
	"testing"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// multiQueueRig builds a server with nCores cores and an RSS NIC with one
// queue per core.
func multiQueueRig(t *testing.T, nCores int) (*sim.Sim, *kernel.Kernel, *Stack, *testClient, *nicdma.NIC) {
	t.Helper()
	s := sim.New(55)
	k := kernel.New(s, nCores, 2.5, kernel.DefaultCosts())
	cfg := nicdma.DefaultConfig()
	cfg.Queues = nCores
	nic := nicdma.New(s, cfg)
	link := fabric.NewLink(s, fabric.Net100G)
	client := newTestClient(s, link, 0)
	link.Attach(client, nic)
	nic.AttachLink(link, 1)
	st := New(k, nic, serverEP, DefaultCosts())

	reg := rpc.NewRegistry()
	reg.Register(&rpc.ServiceDesc{ID: 1, Name: "echo", Methods: []rpc.MethodDesc{{
		ID: 1, Handler: func(req []byte) ([]byte, sim.Time) { return req, sim.Microsecond },
	}}})
	sock := st.Bind(9000)
	for i := 0; i < nCores; i++ {
		k.Spawn(k.NewProcess("echo"), "srv", ServeLoop(ServerConfig{
			Socket: sock, Registry: reg, Codec: rpc.DefaultCostModel(),
		}))
	}
	return s, k, st, client, nic
}

// sendFlow sends a request with a specific source port (steering entropy).
func (c *testClient) sendFlow(t *testing.T, srcPort uint16, id uint64) {
	t.Helper()
	req := rpc.EncodeRequest(1, 1, id, 0, []byte("x"))
	src := clientEP
	src.Port = srcPort
	dst := serverEP
	dst.Port = 9000
	frame, err := wire.BuildUDP(src, dst, uint16(id), req)
	if err != nil {
		t.Fatal(err)
	}
	c.sentAt[id] = c.s.Now()
	c.link.Send(c.side, frame)
}

func TestRSSSpreadsIRQsAcrossCores(t *testing.T) {
	s, k, _, client, _ := multiQueueRig(t, 4)
	// Many flows: RSS should spread them across the 4 queues/cores.
	for i := 0; i < 64; i++ {
		client.sendFlow(t, uint16(20000+i), uint64(i+1))
	}
	s.RunUntil(100 * sim.Millisecond)
	if len(client.responses) != 64 {
		t.Fatalf("%d/64 responses", len(client.responses))
	}
	// Every core should have taken kernel (softirq) work.
	busyCores := 0
	for _, c := range k.Cores() {
		if c.BusyTime() > 0 {
			busyCores++
		}
	}
	if busyCores < 3 {
		t.Errorf("only %d/4 cores did work; RSS steering ineffective", busyCores)
	}
}

func TestSocketQueueOverflowDrops(t *testing.T) {
	s, _, st, client, _ := multiQueueRig(t, 1)
	sock := st.sockets[9000]
	sock.queue.MaxDepth = 8
	// Burst 200 requests at a 1us/req server: the socket must overflow.
	for i := 0; i < 200; i++ {
		client.sendFlow(t, 20001, uint64(i+1))
	}
	s.RunUntil(sim.Second)
	if sock.queue.Dropped == 0 {
		t.Fatal("no socket drops under burst")
	}
	if uint64(len(client.responses))+sock.queue.Dropped != 200 {
		t.Fatalf("responses %d + dropped %d != 200",
			len(client.responses), sock.queue.Dropped)
	}
}

func TestIRQCoalescingReducesInterrupts(t *testing.T) {
	run := func(coalesce sim.Time) uint64 {
		s := sim.New(55)
		k := kernel.New(s, 1, 2.5, kernel.DefaultCosts())
		cfg := nicdma.DefaultConfig()
		cfg.IRQCoalesce = coalesce
		nic := nicdma.New(s, cfg)
		link := fabric.NewLink(s, fabric.Net100G)
		client := newTestClient(s, link, 0)
		link.Attach(client, nic)
		nic.AttachLink(link, 1)
		st := New(k, nic, serverEP, DefaultCosts())
		reg := rpc.NewRegistry()
		reg.Register(&rpc.ServiceDesc{ID: 1, Name: "e", Methods: []rpc.MethodDesc{{
			ID: 1, Handler: func(req []byte) ([]byte, sim.Time) { return req, 0 },
		}}})
		sock := st.Bind(9000)
		k.Spawn(k.NewProcess("e"), "srv", ServeLoop(ServerConfig{
			Socket: sock, Registry: reg, Codec: rpc.DefaultCostModel(),
		}))
		// 100 requests spaced 20us apart.
		for i := 0; i < 100; i++ {
			id := uint64(i + 1)
			at := sim.Time(i) * 20 * sim.Microsecond
			s.At(at, "send", func() { client.sendFlow2(id) })
		}
		s.RunUntil(sim.Second)
		if len(client.responses) != 100 {
			panic("not all served")
		}
		return nic.Stats().IRQs
	}
	noCoalesce := run(0)
	coalesced := run(100 * sim.Microsecond)
	if coalesced >= noCoalesce {
		t.Fatalf("coalescing did not reduce IRQs: %d vs %d", coalesced, noCoalesce)
	}
}

// sendFlow2 is sendFlow without a *testing.T (for use inside closures).
func (c *testClient) sendFlow2(id uint64) {
	req := rpc.EncodeRequest(1, 1, id, 0, []byte("x"))
	src := clientEP
	src.Port = 20001
	dst := serverEP
	dst.Port = 9000
	frame, _ := wire.BuildUDP(src, dst, uint16(id), req)
	c.sentAt[id] = c.s.Now()
	c.link.Send(c.side, frame)
}

func TestMultipleServersShareSocket(t *testing.T) {
	// Several threads serving the same socket (SO_REUSEPORT style): all
	// requests served, no duplication.
	s, _, _, client, _ := multiQueueRig(t, 2)
	for i := 0; i < 40; i++ {
		client.sendFlow(t, uint16(21000+i), uint64(i+1))
	}
	s.RunUntil(sim.Second)
	if len(client.responses) != 40 {
		t.Fatalf("%d/40 responses", len(client.responses))
	}
	seen := map[uint64]int{}
	for _, m := range client.responses {
		seen[m.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request %d answered %d times", id, n)
		}
	}
}

// TestSocketDropsRecycleFrames checks that the stack hands every request
// back to the NIC exactly once: a served request after its response is
// built, and a packet dropped for a full socket queue or for no socket
// bound to its port at once. Each shows up as one frame Put into the
// NIC's pool.
func TestSocketDropsRecycleFrames(t *testing.T) {
	s, _, st, client, nic := multiQueueRig(t, 1)
	pool := new(wire.FramePool)
	nic.SetPool(pool)
	sock := st.sockets[9000]
	sock.queue.MaxDepth = 8
	for i := 0; i < 100; i++ {
		client.sendFlow(t, 20001, uint64(i+1))
	}
	for i := 0; i < 3; i++ {
		client.send(t, 9999, 1, 1, uint64(1000+i), []byte("x"))
	}
	s.RunUntil(sim.Second)
	if sock.queue.Dropped == 0 || st.NoSocketDrops != 3 {
		t.Fatalf("%d socket-full drops, %d no-socket drops", sock.queue.Dropped, st.NoSocketDrops)
	}
	served := uint64(len(client.responses))
	if served+sock.queue.Dropped != 100 {
		t.Fatalf("served %d + dropped %d != 100", served, sock.queue.Dropped)
	}
	if want := served + sock.queue.Dropped + st.NoSocketDrops; pool.Puts != want {
		t.Fatalf("%d frames back in the pool, want %d (%d served, %d socket-full, %d no socket)",
			pool.Puts, want, served, sock.queue.Dropped, st.NoSocketDrops)
	}
}
