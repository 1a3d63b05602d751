// Package fabric models the physical interconnects of the simulated
// machines: the host-side peripheral interconnect (cache-coherent ECI/CXL
// or PCIe) and the Ethernet network between hosts.
//
// Everything the paper argues hinges on the relative cost of CPU↔NIC
// interactions across these fabrics: descriptor-ring DMA over PCIe versus
// single-cache-line protocols over a coherent interconnect. The parameter
// sets below encode published orders of magnitude for each technology; the
// experiments sweep and compare them (see DESIGN.md at the repository
// root for the experiment index).
//
// Between hosts, the package models links (FIFO serialization per
// direction, carrier state, bounded transmit queues), switches (learning
// star mode or routed mode with static FDBs), multi-tier topologies
// (two- and three-tier spine-leaf Clos, built by Topology), and scheduled
// faults (fault.go).
//
// Determinism invariants: a frame's path through a routed fabric is a
// pure function of its bytes, the topology's ECMP seed, and the carrier
// state of the uplinks at forwarding time — never of event interleaving
// or map order. Links deliver each direction in FIFO order at simulated
// times, and fault schedules are ordinary simulator events, so the whole
// fabric replays identically for a given spec and seed.
package fabric

import (
	"fmt"

	"lauberhorn/internal/sim"
)

// Params describes one host-side peripheral interconnect.
//
// Coherent-interconnect fields (LineFill, FetchExclusive, ...) are used by
// the mesi package and by Lauberhorn's control-line protocol. DMA/MMIO
// fields are used by the traditional descriptor-ring NIC. A technology that
// lacks a capability leaves those fields zero and sets the corresponding
// Has* flag false.
type Params struct {
	Name string

	// Coherent transport.
	HasCoherence bool
	// CacheLineSize is the coherence granule in bytes (128 on Enzian ECI,
	// 64 on x86/CXL).
	CacheLineSize int
	// LineFill is the latency for a CPU load that misses to a
	// device-homed line: request to the home plus data response.
	LineFill sim.Time
	// FetchExclusive is the latency for the device to pull a dirty line
	// out of a CPU cache (the NIC's ReadEx in Fig. 4).
	FetchExclusive sim.Time
	// LineWriteback is the latency for a CPU store's ownership upgrade on
	// a device-homed line.
	LineWriteback sim.Time
	// PerLineStream is the incremental cost per additional cache line
	// when the device streams a multi-line payload (pipelined fills).
	PerLineStream sim.Time

	// DMA / MMIO transport.
	HasDMA bool
	// MMIORead is the round-trip latency of an uncached CPU load from a
	// device register.
	MMIORead sim.Time
	// MMIOWrite is the (posted) latency of a CPU store to a device
	// register, e.g. ringing a doorbell.
	MMIOWrite sim.Time
	// DMARead is the latency for the device to read one descriptor-sized
	// chunk from host memory (round trip).
	DMARead sim.Time
	// DMAWrite is the latency for the device to write host memory
	// (posted, measured to global visibility).
	DMAWrite sim.Time
	// DMABandwidth is sustained DMA throughput in bytes per nanosecond.
	DMABandwidth float64
	// IRQLatency is the time from the device raising an interrupt to the
	// first instruction of the handler on the target core.
	IRQLatency sim.Time
}

// String returns the fabric name.
func (p Params) String() string { return p.Name }

// DMATransfer returns the time for the device to move n payload bytes to or
// from host memory: fixed setup plus bandwidth-limited streaming.
func (p Params) DMATransfer(n int) sim.Time {
	if !p.HasDMA {
		panic(fmt.Sprintf("fabric %s: DMATransfer without DMA support", p.Name))
	}
	return p.DMAWrite + sim.PerByte(n, p.DMABandwidth)
}

// Lines returns the number of cache lines needed for n bytes.
func (p Params) Lines(n int) int {
	if p.CacheLineSize <= 0 {
		panic(fmt.Sprintf("fabric %s: no cache line size", p.Name))
	}
	return (n + p.CacheLineSize - 1) / p.CacheLineSize
}

// StreamLines returns the time for a CPU to pull n bytes out of
// device-homed cache lines: one full fill for the first line, pipelined
// fills for the rest. This is the paper's data-plane path where "packets
// [are] transferred directly as cache lines to the destination core's L1
// cache" [21].
func (p Params) StreamLines(n int) sim.Time {
	if !p.HasCoherence {
		panic(fmt.Sprintf("fabric %s: StreamLines without coherence", p.Name))
	}
	if n <= 0 {
		return 0
	}
	lines := p.Lines(n)
	return p.LineFill + sim.Time(lines-1)*p.PerLineStream
}

// ECI is the Enzian Coherence Interface: 128-byte lines, FPGA-terminated
// directory coherence. Latencies follow the measurements in Ruzhanskaia et
// al. (arXiv:2409.08141): a coherent line round trip on Enzian is a few
// hundred nanoseconds — an order of magnitude below PCIe DMA interaction.
var ECI = Params{
	Name:           "ECI",
	HasCoherence:   true,
	CacheLineSize:  128,
	LineFill:       450 * sim.Nanosecond,
	FetchExclusive: 450 * sim.Nanosecond,
	LineWriteback:  350 * sim.Nanosecond,
	PerLineStream:  90 * sim.Nanosecond,
}

// CXL3 models a CXL.mem 3.0 class coherent interconnect on a modern server:
// 64-byte lines and roughly half ECI's latency (the paper "anticipate[s]
// comparable gains with CXL 3.0").
var CXL3 = Params{
	Name:           "CXL3",
	HasCoherence:   true,
	CacheLineSize:  64,
	LineFill:       250 * sim.Nanosecond,
	FetchExclusive: 250 * sim.Nanosecond,
	LineWriteback:  200 * sim.Nanosecond,
	PerLineStream:  40 * sim.Nanosecond,
}

// PCIeX86 models a current x86 server with a PCIe Gen4 x16 NIC: sub-µs DMA
// writes, ~850 ns MMIO reads, ~2 µs interrupt delivery.
var PCIeX86 = Params{
	Name:          "x86 PCIe",
	HasDMA:        true,
	CacheLineSize: 64,
	MMIORead:      850 * sim.Nanosecond,
	MMIOWrite:     150 * sim.Nanosecond,
	DMARead:       700 * sim.Nanosecond,
	DMAWrite:      350 * sim.Nanosecond,
	DMABandwidth:  32.0, // ~32 GB/s
	IRQLatency:    1800 * sim.Nanosecond,
}

// PCIeEnzian models the Enzian FPGA NIC reached over PCIe Gen3: the slow
// FPGA fabric clock and Gen3 link make every interaction several times more
// expensive than on a commodity x86 NIC — which is why the paper's Fig. 2
// shows "Enzian DMA" as the slowest series.
var PCIeEnzian = Params{
	Name:          "Enzian PCIe",
	HasDMA:        true,
	CacheLineSize: 128,
	MMIORead:      2400 * sim.Nanosecond,
	MMIOWrite:     300 * sim.Nanosecond,
	DMARead:       2600 * sim.Nanosecond,
	DMAWrite:      1300 * sim.Nanosecond,
	DMABandwidth:  12.8, // Gen3 x16
	IRQLatency:    6000 * sim.Nanosecond,
}

// ECIWithDMA is the Enzian fabric with both transports available, used by
// experiments that switch between cache-line and DMA data paths on the same
// machine (the ~4 KiB crossover in §6).
var ECIWithDMA = func() Params {
	p := ECI
	p.Name = "ECI+DMA"
	p.HasDMA = true
	p.MMIORead = PCIeEnzian.MMIORead
	p.MMIOWrite = PCIeEnzian.MMIOWrite
	p.DMARead = PCIeEnzian.DMARead
	p.DMAWrite = PCIeEnzian.DMAWrite
	p.DMABandwidth = PCIeEnzian.DMABandwidth
	p.IRQLatency = PCIeEnzian.IRQLatency
	return p
}()
