package kstack

import (
	"fmt"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/wire"
)

// The cluster-facing stack drivers: the traditional in-kernel receive
// path with RSS queues steered to cores and one kernel-scheduled server
// thread per service. Kernel runs over the x86 DMA NIC; KernelEnzian is
// the same software stack over the Enzian FPGA NIC (a NIC variant, so it
// stays out of registry-driven stack sweeps).
func init() {
	stackdrv.Register(stackdrv.Entry{
		Kind:  stackdrv.Kernel,
		Name:  "Kernel",
		Label: "Linux-style kernel",
		Sweep: true,
		New:   func(p stackdrv.HostParams) stackdrv.Instance { return newDriver(p, nicdma.DefaultConfig()) },
	})
	stackdrv.Register(stackdrv.Entry{
		Kind:  stackdrv.KernelEnzian,
		Name:  "KernelEnzian",
		Label: "Kernel on Enzian PCIe",
		New:   func(p stackdrv.HostParams) stackdrv.Instance { return newDriver(p, nicdma.EnzianConfig()) },
	})
}

// driver adapts the in-kernel stack to the stack-driver lifecycle.
type driver struct {
	k        *kernel.Kernel
	nic      *nicdma.NIC
	local    wire.Endpoint
	services []stackdrv.Service
	servedBy map[uint32]*uint64
}

func newDriver(p stackdrv.HostParams, cfg nicdma.Config) *driver {
	k := kernel.New(p.Sim, p.Cores, 2.5, kernel.DefaultCosts())
	if p.NIC != nil {
		cfg = *p.NIC
	}
	cfg.Queues = p.Cores
	cfg.FilterIP = p.Endpoint.IP
	nic := nicdma.New(p.Sim, cfg)
	nic.SetPool(p.Pool)
	return &driver{k: k, nic: nic, local: p.Endpoint, services: p.Services}
}

func (d *driver) Kernel() *kernel.Kernel              { return d.k }
func (d *driver) FramePort() fabric.FramePort         { return d.nic }
func (d *driver) AttachLink(l *fabric.Link, side int) { d.nic.AttachLink(l, side) }

func (d *driver) Start(map[wire.IP]wire.MAC) {
	st := New(d.k, d.nic, d.local, DefaultCosts())
	reg := rpc.NewRegistry()
	d.servedBy = make(map[uint32]*uint64, len(d.services))
	for i, ss := range d.services {
		reg.Register(ss.Desc)
		sock := st.Bind(ss.Port)
		proc := d.k.NewProcess(ss.Desc.Name)
		counter := new(uint64)
		d.servedBy[ss.ID] = counter
		d.k.Spawn(proc, fmt.Sprintf("srv%d", i), ServeLoop(ServerConfig{
			Socket: sock, Registry: reg, Codec: rpc.DefaultCostModel(),
			OnResponse: func(m *rpc.Message) { *counter++ },
		}))
	}
}

func (d *driver) ServedFor(svc uint32) (uint64, bool) {
	c, ok := d.servedBy[svc]
	if !ok {
		return 0, false
	}
	return *c, true
}

// DMANIC exposes the descriptor-ring NIC for tests and experiments; the
// cluster layer surfaces it via an optional-interface assertion.
func (d *driver) DMANIC() *nicdma.NIC { return d.nic }
