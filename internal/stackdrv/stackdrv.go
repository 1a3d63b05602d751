// Package stackdrv defines the stack-driver seam between the declarative
// cluster layer and the network-stack implementations. A Driver entry in
// the registry knows how to provision one host of its architecture —
// kernel, NIC substrate, services, workers — behind a small Instance
// interface covering exactly the lifecycle the cluster builder needs:
// provision, expose the NIC as a fabric.FramePort, attach the link side,
// start, and report per-service served counts.
//
// The registry decouples internal/cluster from the stacks: the builder
// looks drivers up by Kind and never imports stack internals or switches
// on stack kinds. Each stack package (internal/core, internal/bypass,
// internal/kstack) registers its drivers from an init function; importing
// stackdrv/builtin (as the cluster package does) pulls them all in.
// Adding a new stack — a hybrid data path, an IRQ-moderation ablation, a
// new fabric — is one driver file plus one Register call, with no change
// to the topology or experiment layers.
//
// Registration happens at init time; lookups are safe from any goroutine
// afterwards (experiments build universes concurrently).
//
// Determinism invariants: All() returns entries ordered by Kind, so
// registry-driven sweeps are stable; a driver's New must schedule no
// events and draw no randomness (the cluster builder's construction-order
// contract), and Check must be a pure function of its HostParams.
package stackdrv

import (
	"fmt"
	"sort"
	"sync"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/kernel"
	"lauberhorn/internal/nicdma"
	"lauberhorn/internal/rpc"
	"lauberhorn/internal/sim"
	"lauberhorn/internal/wire"
)

// Kind identifies a registered stack architecture. The cluster package
// aliases it as cluster.Stack, so specs name kinds directly.
type Kind int

const (
	// Lauberhorn is the paper's NIC-as-OS-component stack (internal/core)
	// with pure cache-line delivery.
	Lauberhorn Kind = iota
	// Bypass is the kernel-bypass dataplane: one pinned worker per
	// service, port-steered NIC queues (IX/Arrakis-style).
	Bypass
	// Kernel is the traditional in-kernel stack over the x86 DMA NIC.
	Kernel
	// KernelEnzian is the kernel stack over the Enzian FPGA NIC.
	KernelEnzian
	// Hybrid is Lauberhorn with the §6 DMA fallback armed: bodies at or
	// above the threshold revert to DMA-based transfers in both
	// directions, while small messages keep the cache-line path.
	Hybrid
)

// Label returns the registered display name of the kind (matching the
// labels the original point-to-point rigs used), or a stack(n)
// placeholder when no driver is registered for it.
func (k Kind) Label() string {
	if e, ok := Lookup(k); ok {
		return e.Label
	}
	return fmt.Sprintf("stack(%d)", int(k))
}

// Service is one RPC service a host exports, reduced to what a driver
// needs to provision and account for it.
type Service struct {
	// ID is the RPC service ID, unique on its host.
	ID uint32
	// Port is the UDP port the service listens on.
	Port uint16
	// MinWorkers is the Lauberhorn per-endpoint worker floor (ignored by
	// stacks without one).
	MinWorkers int
	// Desc is the full service descriptor to register. It may be nil
	// during spec validation (Check), when only the identity fields are
	// populated.
	Desc *rpc.ServiceDesc
}

// FabricInfo describes where a host sits in the cluster fabric, so a
// driver's topology Check (and its provisioning decisions) can see past
// its own access link: how many switch tiers the fabric has, which
// access switch the host lands on, and how many redundant spine paths
// exist. A zero value means the legacy shapes — a direct point-to-point
// link or a single-switch star.
type FabricInfo struct {
	// Kind names the fabric shape: "direct", "star", "spineleaf", "ring".
	Kind string
	// Tiers is the switch-tier count: 0 direct, 1 star/ring, 2 spine-leaf.
	Tiers int
	// Leaf is the index of the host's access switch (0 for direct/star).
	Leaf int
	// Spines is the redundant-path count between leaves (spine-leaf only).
	Spines int
}

// HostParams carries everything a driver factory needs to provision one
// host. During spec validation (Entry.Check) only the topology fields are
// set: Sim is nil and Services carry no Desc.
type HostParams struct {
	Sim *sim.Sim
	// HostName is the host's spec name, for error messages.
	HostName string
	// Endpoint is the host's resolved MAC/IP.
	Endpoint wire.Endpoint
	Cores    int
	Services []Service
	// NIC optionally overrides the DMA NIC configuration. Drivers that
	// honour it still own the topology-dependent fields (queue count,
	// steering, destination-IP filter) and overwrite them; drivers
	// without a DMA NIC ignore it.
	NIC *nicdma.Config
	// Fabric places the host in the cluster's switch fabric. It is set
	// both at validation time (Check) and at provisioning time (New).
	Fabric FabricInfo
	// Pool is the frame free list of the host's Sim (see
	// wire.FramePool's ownership contract): a driver whose NIC builds
	// frames from it and Puts the frames it terminally consumes recycles
	// its buffers. Nil outside the cluster builder, where frames are
	// plain allocations.
	Pool *wire.FramePool
}

// Instance is one provisioned host-side stack. The cluster builder calls
// the methods in lifecycle order: the factory provisions the substrate
// (no events scheduled, no randomness drawn), FramePort/AttachLink wire
// the network, Start registers services and spawns workers, and ServedFor
// reports completions.
type Instance interface {
	// Kernel returns the host kernel (every stack has one; it owns the
	// cores used for residency and energy accounting).
	Kernel() *kernel.Kernel
	// FramePort returns the NIC as the link-attachable frame port.
	FramePort() fabric.FramePort
	// AttachLink tells the NIC which link side it transmits on.
	AttachLink(l *fabric.Link, side int)
	// Start registers the instance's services and spawns its workers.
	// arp maps every host's IP in the universe to its MAC, the
	// instance's own entry included, for stacks that keep static
	// neighbour state (Lauberhorn's ARP mesh). One table is shared by
	// every host, across shard goroutines too, so instances only read it.
	Start(arp map[wire.IP]wire.MAC)
	// ServedFor returns requests completed for one service ID, and
	// whether the instance exports that service at all.
	ServedFor(svc uint32) (uint64, bool)
}

// Entry describes one registered stack driver.
type Entry struct {
	Kind Kind
	// Name is the short unique name used in experiment tables and CLI
	// selection (e.g. "Lauberhorn", "Bypass").
	Name string
	// Label is the display label, matching the labels the original
	// point-to-point rigs printed (e.g. "Lauberhorn (ECI)").
	Label string
	// Sweep marks the stack for registry-driven cluster comparisons
	// (e17-style sweeps). NIC variants of another entry (KernelEnzian)
	// leave it false.
	Sweep bool
	// New provisions one host. It must schedule no events and draw no
	// randomness — the cluster builder's construction-order contract.
	New func(HostParams) Instance
	// Check optionally validates a host's topology parameters at spec
	// validation time (before any simulator exists), e.g. the bypass
	// port-steering collision check.
	Check func(HostParams) error
}

var (
	//lhlint:allow goroutine guards the init-time driver registry, not simulation state; models never touch it mid-run
	regMu     sync.RWMutex
	registry  = make(map[Kind]Entry)
	byName    = make(map[string]Kind)
	regSorted []Entry
)

// Register installs a driver entry. It panics on an incomplete entry or
// when the kind or name is already taken — drivers register from init
// functions, where a collision is a programming error.
func Register(e Entry) {
	if e.Name == "" || e.Label == "" || e.New == nil {
		panic(fmt.Sprintf("stackdrv: incomplete driver entry %+v", e))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, dup := registry[e.Kind]; dup {
		panic(fmt.Sprintf("stackdrv: kind %d registered twice (%q, %q)", int(e.Kind), prev.Name, e.Name))
	}
	if _, dup := byName[e.Name]; dup {
		panic(fmt.Sprintf("stackdrv: name %q registered twice", e.Name))
	}
	registry[e.Kind] = e
	byName[e.Name] = e.Kind
	regSorted = append(regSorted, e)
	sort.Slice(regSorted, func(i, j int) bool { return regSorted[i].Kind < regSorted[j].Kind })
}

// Lookup returns the entry registered for the kind.
func Lookup(k Kind) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[k]
	return e, ok
}

// ByName returns the entry registered under the short name.
func ByName(name string) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	k, ok := byName[name]
	if !ok {
		return Entry{}, false
	}
	return registry[k], true
}

// All returns every registered entry, ordered by kind, so registry-driven
// sweeps are deterministic. The slice is fresh per call.
func All() []Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Entry, len(regSorted))
	copy(out, regSorted)
	return out
}
