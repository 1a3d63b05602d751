package bypass

import (
	"fmt"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/stackdrv"
	"lauberhorn/internal/wire"
)

// The cluster-facing stack driver: one pinned worker per service, each
// bound to a port-steered NIC queue, workers pinned round-robin across
// cores (statically provisioned, as IX/Arrakis deployments are).
func init() {
	stackdrv.Register(stackdrv.Entry{
		Kind:  stackdrv.Bypass,
		Name:  "Bypass",
		Label: "Kernel bypass",
		Sweep: true,
		New:   newDriver,
		Check: checkSteering,
	})
}

// checkSteering rejects service port sets whose port-mod-queue residues
// collide: queue selection is Port mod len(Services), so colliding ports
// would starve one service's queue while double-serving another.
func checkSteering(p stackdrv.HostParams) error {
	residues := make(map[int]uint16)
	for _, svc := range p.Services {
		res := int(svc.Port) % len(p.Services)
		if other, clash := residues[res]; clash {
			return fmt.Errorf("cluster: bypass host %q ports %d and %d steer to the same queue (%d mod %d)",
				p.HostName, other, svc.Port, res, len(p.Services))
		}
		residues[res] = svc.Port
	}
	return nil
}

// driver adapts the bypass dataplane to the stack-driver lifecycle.
type driver struct {
	k        *kernel.Kernel
	nic      *nicdma.NIC
	local    wire.Endpoint
	cores    int
	services []stackdrv.Service
	workers  map[uint32]*Worker
}

func newDriver(p stackdrv.HostParams) stackdrv.Instance {
	k := kernel.New(p.Sim, p.Cores, 2.5, kernel.DefaultCosts())
	cfg := nicdma.DefaultConfig()
	if p.NIC != nil {
		cfg = *p.NIC
	}
	cfg.Queues = len(p.Services)
	cfg.SteerByPort = true
	cfg.FilterIP = p.Endpoint.IP
	nic := nicdma.New(p.Sim, cfg)
	nic.SetPool(p.Pool)
	return &driver{k: k, nic: nic, local: p.Endpoint, cores: p.Cores, services: p.Services}
}

func (d *driver) Kernel() *kernel.Kernel              { return d.k }
func (d *driver) FramePort() fabric.FramePort         { return d.nic }
func (d *driver) AttachLink(l *fabric.Link, side int) { d.nic.AttachLink(l, side) }

func (d *driver) Start(map[wire.IP]wire.MAC) {
	reg := rpc.NewRegistry()
	for _, ss := range d.services {
		reg.Register(ss.Desc)
	}
	d.workers = make(map[uint32]*Worker, len(d.services))
	for i, ss := range d.services {
		// Queue selection must match SteerByPort: port p maps to queue
		// p mod len(services) (checkSteering rejects collisions).
		q := d.nic.Queue(int(ss.Port) % len(d.services))
		w := NewWorker(WorkerConfig{
			Queue: q, NIC: d.nic, Local: d.local,
			Registry: reg, Codec: rpc.DefaultCostModel(), Costs: DefaultCosts(),
		})
		d.workers[ss.ID] = w
		proc := d.k.NewProcess(fmt.Sprintf("svc%d", ss.ID))
		d.k.SpawnPinned(proc, fmt.Sprintf("bypass%d", i), i%d.cores, w.Loop)
	}
}

func (d *driver) ServedFor(svc uint32) (uint64, bool) {
	w, ok := d.workers[svc]
	if !ok {
		return 0, false
	}
	return w.Stats().Served, true
}

// DMANIC exposes the descriptor-ring NIC for tests and experiments; the
// cluster layer surfaces it via an optional-interface assertion.
func (d *driver) DMANIC() *nicdma.NIC { return d.nic }
