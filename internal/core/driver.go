package core

import (
	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/wire"
)

// The cluster-facing stack drivers for the coherent NIC. Lauberhorn is
// the paper's headline architecture with pure cache-line delivery; Hybrid
// is the same host with the §6 DMA fallback armed at the default 4 KiB
// threshold, so large bodies revert to DMA-based transfers in both
// directions.
func init() {
	stackdrv.Register(stackdrv.Entry{
		Kind:  stackdrv.Lauberhorn,
		Name:  "Lauberhorn",
		Label: "Lauberhorn (ECI)",
		Sweep: true,
		New:   func(p stackdrv.HostParams) stackdrv.Instance { return newLHDriver(p, 0) },
	})
	stackdrv.Register(stackdrv.Entry{
		Kind:  stackdrv.Hybrid,
		Name:  "Hybrid",
		Label: "Lauberhorn hybrid (4KiB DMA)",
		Sweep: true,
		New: func(p stackdrv.HostParams) stackdrv.Instance {
			return newLHDriver(p, DefaultConfig(p.Endpoint).DMAThreshold)
		},
	})
}

// lhDriver adapts a Lauberhorn Host to the stack-driver lifecycle.
type lhDriver struct {
	host     *Host
	services []stackdrv.Service
}

func newLHDriver(p stackdrv.HostParams, dmaThreshold int) *lhDriver {
	cfg := DefaultHostConfig(p.Endpoint, p.Cores)
	cfg.NIC.DMAThreshold = dmaThreshold
	h := NewHost(p.Sim, cfg)
	h.NIC.frames = p.Pool
	return &lhDriver{host: h, services: p.Services}
}

func (d *lhDriver) Kernel() *kernel.Kernel              { return d.host.K }
func (d *lhDriver) FramePort() fabric.FramePort         { return d.host.NIC }
func (d *lhDriver) AttachLink(l *fabric.Link, side int) { d.host.NIC.AttachLink(l, side) }

func (d *lhDriver) Start(arp map[wire.IP]wire.MAC) {
	for _, ss := range d.services {
		d.host.RegisterService(ss.Desc, ss.Port, ss.MinWorkers)
	}
	// The universe's ARP table lets nested calls address peer hosts
	// without per-experiment plumbing.
	d.host.NIC.peerARP = arp
	d.host.Start()
}

func (d *lhDriver) ServedFor(svc uint32) (uint64, bool) {
	for _, ss := range d.services {
		if ss.ID == svc {
			return d.host.Served(svc), true
		}
	}
	return 0, false
}

// LauberhornHost exposes the underlying host for experiments that wire
// host-level behavior (async handlers, ablation mutations). The cluster
// layer surfaces it via an optional-interface assertion.
func (d *lhDriver) LauberhornHost() *Host { return d.host }
