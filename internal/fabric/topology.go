package fabric

import (
	"fmt"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/sim/shard"
	"lauberhorn/internal/wire"
)

// TopoSpec declares a spine-leaf Clos: machines attach to leaf switches
// (LeafPorts per leaf, leaves created on demand in attach order) and
// every leaf has one uplink to every spine. Leaves route unknown
// destinations up via deterministic ECMP over the live uplinks; spines
// know, statically, which leaf every endpoint is behind.
type TopoSpec struct {
	// Spines is the number of spine switches — total for a two-tier
	// spine-leaf fabric, per pod when Cores > 0 makes it three-tier.
	Spines int
	// LeafPorts is how many machines attach to one leaf before the next
	// is used.
	LeafPorts int
	// Cores > 0 grows the spine-leaf fabric a third tier: Cores core
	// switches above the spines. Leaves then group into pods of PodLeaves
	// leaves, each pod with its own Spines spine switches; every spine
	// uplinks to every core. ECMP runs at both tiers — leaves hash across
	// their pod's spines, spines hash across the cores — and each core
	// spreads traffic for a destination across that destination pod's
	// spines (an ECMP group per pod).
	Cores int
	// PodLeaves is how many leaves share one pod (3-tier only).
	PodLeaves int
	// Uplink parameterizes the inter-switch links.
	Uplink NetParams
	// ECMPSeed salts every switch's flow hash. Path selection is a pure
	// function of (frame bytes, seed, link carrier states), so two
	// topologies built from equal specs route identically regardless of
	// event interleaving — the fabric half of the repo-wide determinism
	// contract.
	ECMPSeed uint64
}

// ThreeTier reports whether the spec describes a core/spine/leaf Clos.
func (ts TopoSpec) ThreeTier() bool { return ts.Cores > 0 }

// Validate rejects malformed specs with a descriptive error.
func (ts TopoSpec) Validate() error {
	if ts.LeafPorts <= 0 {
		return fmt.Errorf("fabric: topology needs LeafPorts > 0, got %d", ts.LeafPorts)
	}
	if ts.Uplink.Bandwidth <= 0 {
		return fmt.Errorf("fabric: topology needs uplink bandwidth")
	}
	if ts.Cores < 0 {
		return fmt.Errorf("fabric: negative core count %d", ts.Cores)
	}
	if ts.PodLeaves < 0 {
		return fmt.Errorf("fabric: negative PodLeaves %d", ts.PodLeaves)
	}
	if ts.Spines <= 0 {
		return fmt.Errorf("fabric: spine-leaf needs Spines > 0, got %d", ts.Spines)
	}
	if ts.Cores > 0 && ts.PodLeaves <= 0 {
		return fmt.Errorf("fabric: 3-tier Clos needs PodLeaves > 0, got %d", ts.PodLeaves)
	}
	if ts.Cores == 0 && ts.PodLeaves > 0 {
		return fmt.Errorf("fabric: PodLeaves without Cores — set Cores > 0 for a 3-tier Clos")
	}
	return nil
}

// Topology is a built multi-switch fabric. Machines attach in a
// deterministic order (Attach fills leaves sequentially); every switch
// runs routed with a statically programmed FDB, so a multi-tier fabric
// never floods and every path decision is reproducible from the spec.
type Topology struct {
	Spec TopoSpec
	// Leaves are the access switches.
	Leaves []*Switch
	// Spines are the spine switches. In a 3-tier Clos they are flattened
	// per pod: pod p's spines are Spines[p*Spec.Spines : (p+1)*Spec.Spines].
	Spines []*Switch
	// Cores are the core switches of a 3-tier Clos.
	Cores []*Switch

	// s is the hub Sim: spines and cores always live here. In a serial
	// build the leaves do too; a sharded build places leaf l (and the
	// leaf side of its uplinks) on leafSim(l).
	s       *sim.Sim
	leafSim func(int) *sim.Sim
	exec    *shard.Executor
	// nextDir numbers inter-switch link directions; each link's two
	// delivery-key bases derive from it, identically in serial and
	// sharded builds (creation order is attach order either way).
	nextDir uint64
	// uplinks[l][sp] is the leaf l <-> spine sp link (leaf on side 0);
	// sp indexes the leaf's pod's spines in a 3-tier fabric.
	uplinks [][]*Link
	// coreLinks[g][c] is global spine g <-> core c (spine on side 0).
	coreLinks [][]*Link
	// corePort[g][c] is spine g's port index on core c.
	corePort [][]int
	// spinePort[l][sp] is leaf l's port index on (pod-local) spine sp.
	spinePort [][]int
	attached  int
	macs      []wire.MAC
}

// dirShift positions the direction ID above the 40-bit per-direction
// frame counter inside a delivery key: KeyedBase | dir<<dirShift | seq.
const dirShift = 40

// interLink creates one keyed inter-switch link with side 0 on s0. The
// two direction IDs come off the topology-wide counter, so a serial and
// a sharded build of the same spec assign identical keys to identical
// links.
func (t *Topology) interLink(s0 *sim.Sim) *Link {
	l := NewLink(s0, t.Spec.Uplink)
	l.SetDeliveryKeys(sim.KeyedBase|t.nextDir<<dirShift, sim.KeyedBase|(t.nextDir+1)<<dirShift)
	t.nextDir += 2
	return l
}

// simForLeaf is the Sim leaf l's switch (and the leaf side of its
// uplinks) lives on.
func (t *Topology) simForLeaf(l int) *sim.Sim {
	if t.leafSim == nil {
		return t.s
	}
	return t.leafSim(l)
}

// NewTopology builds the switch tiers and inter-switch links. Leaves (and
// their uplinks) appear on demand as machines attach, so the leaf count
// is ceil(machines / LeafPorts).
func NewTopology(s *sim.Sim, spec TopoSpec) *Topology {
	return newTopology(s, spec, nil, nil)
}

// NewTopologySharded builds a spine-leaf fabric partitioned for sharded
// execution: leaf l's switch and the leaf side of its uplinks live on
// leafSim(l); spines and cores live on the hub Sim. Every uplink whose
// leaf Sim differs from the hub is split, its two direction channels
// registered with x. Link-creation order is identical to a serial build
// of the same spec, so delivery keys — and therefore merge order — are
// identical too.
func NewTopologySharded(hub *sim.Sim, spec TopoSpec, leafSim func(leaf int) *sim.Sim, x *shard.Executor) *Topology {
	if spec.Uplink.Lookahead() <= 0 {
		panic("fabric: sharded build requires positive uplink lookahead")
	}
	if leafSim == nil || x == nil {
		panic("fabric: sharded build needs a leaf Sim map and an executor")
	}
	return newTopology(hub, spec, leafSim, x)
}

func newTopology(s *sim.Sim, spec TopoSpec, leafSim func(int) *sim.Sim, x *shard.Executor) *Topology {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	t := &Topology{Spec: spec, s: s, leafSim: leafSim, exec: x}
	if spec.ThreeTier() {
		// Cores up front; each pod's spines appear with its first leaf.
		for i := 0; i < spec.Cores; i++ {
			t.Cores = append(t.Cores, NewSwitch(s))
		}
		return t
	}
	for i := 0; i < spec.Spines; i++ {
		t.Spines = append(t.Spines, NewSwitch(s))
	}
	return t
}

// ensurePod creates pods 0..p: each pod's Spines spine switches on the
// hub Sim, each spine with one keyed uplink per core and an ECMP group
// over those uplinks, and on every core an ECMP group over the pod's
// spine downlinks. Pods appear in order (leaves fill sequentially), so
// pod p's group index on every core is exactly p.
func (t *Topology) ensurePod(p int) {
	for pod := len(t.Spines) / t.Spec.Spines; pod <= p; pod++ {
		start := len(t.Spines)
		for s := 0; s < t.Spec.Spines; s++ {
			g := len(t.Spines) // global spine index
			spine := NewSwitch(t.s)
			t.Spines = append(t.Spines, spine)
			links := make([]*Link, t.Spec.Cores)
			cports := make([]int, t.Spec.Cores)
			var up []int
			for c := 0; c < t.Spec.Cores; c++ {
				// Spine and core both live on the hub Sim, so these keyed
				// links are never split.
				link := t.interLink(t.s)
				links[c] = link
				u := spine.AttachPort(link, 0)
				d := t.Cores[c].AttachPort(link, 1)
				link.Attach(u, d)
				up = append(up, u.idx)
				cports[c] = d.idx
			}
			spine.SetUplinks(up, t.Spec.ECMPSeed+(uint64(g)+1<<32)*0x9e3779b97f4a7c15)
			t.coreLinks = append(t.coreLinks, links)
			t.corePort = append(t.corePort, cports)
		}
		for c, core := range t.Cores {
			ports := make([]int, t.Spec.Spines)
			for s := 0; s < t.Spec.Spines; s++ {
				ports[s] = t.corePort[start+s][c]
			}
			core.AddGroup(ports)
		}
	}
}

// newLeaf appends an access switch with one uplink per (pod) spine,
// registering the ECMP group on the leaf and the leaf's port on every
// spine. In a sharded build the leaf lives on its shard's Sim and each
// uplink is split at the leaf/hub boundary.
func (t *Topology) newLeaf() *Switch {
	l := len(t.Leaves)
	ls := t.simForLeaf(l)
	leaf := NewSwitch(ls)
	t.Leaves = append(t.Leaves, leaf)
	podBase := 0
	if t.Spec.ThreeTier() {
		pod := l / t.Spec.PodLeaves
		t.ensurePod(pod)
		podBase = pod * t.Spec.Spines
	}
	links := make([]*Link, t.Spec.Spines)
	sports := make([]int, t.Spec.Spines)
	var group []int
	for sp := 0; sp < t.Spec.Spines; sp++ {
		link := t.interLink(ls)
		if ls != t.s {
			link.Split(t.s, t.exec)
		}
		links[sp] = link
		spine := t.Spines[podBase+sp]
		up := leaf.AttachPort(link, 0)
		down := spine.AttachPort(link, 1)
		link.Attach(up, down)
		spine.MarkTrunk(down.idx)
		sports[sp] = down.idx
		group = append(group, up.idx)
	}
	// Per-leaf seed variation keeps two leaves from making correlated
	// hash choices for the same flow.
	leaf.SetUplinks(group, t.Spec.ECMPSeed+uint64(l)*0x9e3779b97f4a7c15)
	t.uplinks = append(t.uplinks, links)
	t.spinePort = append(t.spinePort, sports)
	return leaf
}

// Attach wires a machine's access link into the fabric: the machine's
// FramePort fp owns link side 0, the access switch side 1 (machines are
// placed in attach order, LeafPorts per switch). It programs the static
// FDB on every switch so the fabric routes to mac without flooding, and
// returns the index of the access switch the machine landed on.
func (t *Topology) Attach(mac wire.MAC, l *Link, fp FramePort) int {
	port, leafIdx := t.accessPort(l)
	l.Attach(fp, port)
	t.route(mac, leafIdx, port.idx)
	t.macs = append(t.macs, mac)
	return leafIdx
}

// accessPort allocates the next access port in fill order.
func (t *Topology) accessPort(l *Link) (*SwitchPort, int) {
	idx := t.attached
	t.attached++
	leafIdx := idx / t.Spec.LeafPorts
	for leafIdx >= len(t.Leaves) {
		t.newLeaf()
	}
	return t.Leaves[leafIdx].AttachPort(l, 1), leafIdx
}

// route programs every switch's static FDB for a machine on leafIdx.
func (t *Topology) route(mac wire.MAC, leafIdx, accessPort int) {
	t.Leaves[leafIdx].Learn(mac, accessPort)
	if t.Spec.ThreeTier() {
		// Only the destination pod's spines know the machine; every core
		// spreads it across that pod's spines (group index == pod, see
		// ensurePod); other pods' switches ECMP upward.
		pod := leafIdx / t.Spec.PodLeaves
		for sp := 0; sp < t.Spec.Spines; sp++ {
			t.Spines[pod*t.Spec.Spines+sp].Learn(mac, t.spinePort[leafIdx][sp])
		}
		for _, core := range t.Cores {
			core.LearnGroup(mac, pod)
		}
		return
	}
	// Every spine knows which leaf the machine is behind; other leaves
	// ECMP unknown destinations upward, so they need nothing.
	for sp, spine := range t.Spines {
		spine.Learn(mac, t.spinePort[leafIdx][sp])
	}
}

// Uplink returns the leaf <-> spine link of a spine-leaf fabric — the
// fault-injection targets e19-style experiments flap.
func (t *Topology) Uplink(leaf, spine int) *Link {
	if leaf < 0 || leaf >= len(t.uplinks) || spine < 0 || spine >= t.Spec.Spines {
		panic(fmt.Sprintf("fabric: no uplink leaf%d:spine%d (%d leaves, %d spines)",
			leaf, spine, len(t.uplinks), t.Spec.Spines))
	}
	return t.uplinks[leaf][spine]
}

// CoreLink returns the link between global spine g and core c of a
// 3-tier Clos.
func (t *Topology) CoreLink(g, c int) *Link {
	if !t.Spec.ThreeTier() {
		panic("fabric: CoreLink on a non-3-tier topology")
	}
	if g < 0 || g >= len(t.coreLinks) || c < 0 || c >= t.Spec.Cores {
		panic(fmt.Sprintf("fabric: no core link spine%d:core%d (%d spines, %d cores)",
			g, c, len(t.coreLinks), t.Spec.Cores))
	}
	return t.coreLinks[g][c]
}

// Pods reports how many pods a 3-tier fabric has instantiated (zero on
// two-tier fabrics).
func (t *Topology) Pods() int {
	if !t.Spec.ThreeTier() {
		return 0
	}
	return len(t.Spines) / t.Spec.Spines
}

// visitLinks calls fn on every instantiated inter-switch link: uplinks
// and core links.
func (t *Topology) visitLinks(fn func(*Link)) {
	for _, row := range t.uplinks {
		for _, l := range row {
			fn(l)
		}
	}
	for _, row := range t.coreLinks {
		for _, l := range row {
			fn(l)
		}
	}
}

// LookaheadBound returns the minimum lookahead (propagation + switching
// delay) across every instantiated inter-switch link — the conservative
// window width sharded execution may safely use. It returns sim.Never if
// no inter-switch link exists yet.
func (t *Topology) LookaheadBound() sim.Time {
	bound := sim.Never
	t.visitLinks(func(l *Link) {
		if la := l.params.Lookahead(); la < bound {
			bound = la
		}
	})
	return bound
}

// Attached reports how many machines are wired in.
func (t *Topology) Attached() int { return t.attached }

// Dropped sums frames lost inside the fabric: switch drops (drain, dead
// ECMP groups) plus drops on inter-switch links (carrier-down or full
// queues). Access-link drops are the attached machine's to report.
func (t *Topology) Dropped() uint64 {
	var n uint64
	for _, sw := range t.Leaves {
		n += sw.Dropped
	}
	for _, sw := range t.Spines {
		n += sw.Dropped
	}
	for _, sw := range t.Cores {
		n += sw.Dropped
	}
	t.visitLinks(func(l *Link) { n += l.DroppedTotal() })
	return n
}

// Marked sums CE marks set on inter-switch links by their ECNThreshold —
// the fabric's half of the congestion signal an ECN transport closes the
// loop on. Access-link marks are the attached machine's to report.
func (t *Topology) Marked() uint64 {
	var n uint64
	t.visitLinks(func(l *Link) { n += l.MarkedTotal() })
	return n
}

// PeakBacklog reports the worst transmit backlog (as serialization time)
// any inter-switch link direction has seen — the congestion high-water
// mark experiments surface next to drop counts.
func (t *Topology) PeakBacklog() sim.Time {
	var peak sim.Time
	t.visitLinks(func(l *Link) {
		for side := 0; side < 2; side++ {
			if b := l.PeakBacklog(side); b > peak {
				peak = b
			}
		}
	})
	return peak
}

// UplinkFrames reports, per spine, the frames leaf->spine plus
// spine->leaf carried over all of that spine's uplinks — the series an
// experiment prints to show ECMP spread.
func (t *Topology) UplinkFrames() []uint64 {
	out := make([]uint64, len(t.Spines))
	for leafIdx, row := range t.uplinks {
		// A leaf's uplink row is indexed by its pod-local spine; on a
		// 3-tier fabric that maps to the pod's slice of the global spine
		// list.
		base := 0
		if t.Spec.ThreeTier() {
			base = (leafIdx / t.Spec.PodLeaves) * t.Spec.Spines
		}
		for sp, l := range row {
			f0, _ := l.Stats(0)
			f1, _ := l.Stats(1)
			out[base+sp] += f0 + f1
		}
	}
	return out
}

// String summarizes the fabric shape.
func (t *Topology) String() string {
	if t.Spec.ThreeTier() {
		return fmt.Sprintf("clos3{leaves=%d pods=%d spines=%d cores=%d machines=%d}",
			len(t.Leaves), t.Pods(), len(t.Spines), len(t.Cores), t.attached)
	}
	return fmt.Sprintf("spineleaf{leaves=%d spines=%d machines=%d}",
		len(t.Leaves), len(t.Spines), t.attached)
}
