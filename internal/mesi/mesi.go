// Package mesi implements a directory-based cache-coherence protocol over a
// configurable peripheral interconnect (internal/fabric). It is the
// substrate for Lauberhorn's control-cache-line protocol (paper Fig. 4):
// the NIC acts as the *home agent* for a set of lines and may defer the
// data response to a CPU load — the "stalled load" that replaces both
// interrupts and busy-polling.
//
// The protocol is MSI with a serializing home: each line's directory entry
// admits one transaction at a time and queues the rest, which is how real
// directory controllers resolve races. Deferred fills hold the line busy;
// a watchdog models the interconnect's protocol timeout (the "unrecoverable
// bus error" of §5.1) if the home defers too long, which is exactly why
// Lauberhorn must emit TryAgain messages.
//
// Layout: an addrTable (open addressing, each slot one packed key, flag
// and value) finds a line's state. The directory keeps each line's state
// in one dirLine struct, allocated on first touch and never freed. A
// protocol step reads and writes most of a line's fields — a read fill
// touches 17 of them — so one struct is a few adjacent cache lines where
// a slice per field was up to 17 scattered ones. On a universe of
// hundreds of hosts each line is cold on every request, so the per-field
// layout paid each of those misses: on the benchmark's clos workload
// (512 servers) the struct cut run time by 4-7% against per-field
// slices (2-vCPU Xeon VM). The caches keep three small per-line fields
// in parallel slices indexed by the table's slot. Entries are never
// freed, so the steady state allocates nothing. Sharer sets are small
// slices, not maps.
//
// Determinism invariants: every protocol transition fires as a simulator
// event at a simulated time (ties broken by schedule order), line state
// lives in an open-addressed table whose behavior never depends on Go map
// iteration, and no randomness is drawn — a coherence trace replays
// identically for a given seed.
package mesi

import (
	"fmt"

	"lauberhorn/internal/fabric"
	"lauberhorn/internal/fifo"
	"lauberhorn/internal/sim"
)

// LineAddr identifies one cache line in the coherent address space.
type LineAddr uint64

// State is a cache-side MSI state.
type State uint8

// Cache line states.
const (
	Invalid State = iota
	Shared
	Modified
)

// String returns the single-letter protocol name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return "?"
}

// Backing supplies and receives line data for a directory's address range.
// A DRAM home responds to ReadLine immediately; a device home (the
// Lauberhorn NIC) may capture the respond function and invoke it at any
// later simulated time — that is the deferred fill.
type Backing interface {
	// ReadLine is called when the home must produce the line's data for a
	// fill and no cache holds it Modified. respond must be called exactly
	// once, with a slice of the fabric's line size, at the current or a
	// later simulated time. excl marks a read-for-ownership (the
	// requester intends to write); device homes must answer those
	// immediately — only plain loads may be deferred.
	ReadLine(addr LineAddr, excl bool, respond func(data []byte))
	// WriteLine is called when dirty data returns to the home (writeback
	// or recall).
	WriteLine(addr LineAddr, data []byte)
}

// MemBacking is a trivial in-memory Backing that responds immediately —
// used for DRAM-homed lines and in tests.
type MemBacking struct {
	LineSize int
	data     *addrTable[[]byte]
}

// NewMemBacking returns a zero-filled memory backing.
func NewMemBacking(lineSize int) *MemBacking {
	return &MemBacking{LineSize: lineSize, data: newAddrTable[[]byte](0)}
}

// ReadLine responds immediately with the stored (or zero) data.
func (m *MemBacking) ReadLine(addr LineAddr, excl bool, respond func([]byte)) {
	respond(m.Get(addr))
}

// WriteLine stores the data.
func (m *MemBacking) WriteLine(addr LineAddr, data []byte) {
	c := make([]byte, m.LineSize)
	copy(c, data)
	m.data.put(addr, c)
}

// Get returns the current stored value (zeroes if never written).
func (m *MemBacking) Get(addr LineAddr) []byte {
	if d, ok := m.data.get(addr); ok {
		c := make([]byte, len(d))
		copy(c, d)
		return c
	}
	return make([]byte, m.LineSize)
}

// Stats counts protocol activity; experiment E6 uses it to measure bus
// traffic.
type Stats struct {
	Fills         stats64
	DeferredFills stats64
	Recalls       stats64
	Writebacks    stats64
	Invalidations stats64
	Upgrades      stats64
}

type stats64 uint64

// Inc adds one.
func (s *stats64) Inc() { *s++ }

// Value returns the count.
func (s stats64) Value() uint64 { return uint64(s) }

// Directory is the home agent for a region of lines. It serializes
// transactions per line and moves data between the backing store and the
// attached caches with fabric-parameterized latencies.
//
// Each line's state is one dirLine, allocated on the line's first touch
// and found through an addrTable.
type Directory struct {
	sim     *sim.Sim
	params  fabric.Params
	backing Backing
	// readLine/writeLine are the backing's methods bound once at
	// construction: the per-fill hot path makes direct calls instead of
	// re-dispatching through the interface on every transaction.
	readLine  func(addr LineAddr, excl bool, respond func(data []byte))
	writeLine func(addr LineAddr, data []byte)

	lines *addrTable[*dirLine]

	stats Stats

	// DeferTimeout bounds how long a fill may stay deferred before the
	// interconnect declares a protocol timeout. BusError is then invoked
	// (default: panic). Lauberhorn's 15 ms TryAgain exists precisely to
	// stay below this bound.
	DeferTimeout sim.Time
	BusError     func(addr LineAddr)
}

// dirLine is one line's directory entry: its sharers and owner, its
// queue of waiting transactions, and the staging of the one transaction
// in flight. A line admits one transaction at a time, so every timed
// protocol hop fires through the line's one prebound stepFn, and stage
// names the hop the next firing performs — the steady state schedules
// hops without allocating a closure per transaction.
//
// A dirLine is allocated once and never moves, so a pointer to it stays
// valid across callbacks that create other lines.
type dirLine struct {
	addr    LineAddr
	owner   *Cache
	sharers []*Cache
	busy    bool
	stage   dirStage
	queue   fifo.Queue[txn]
	// watchdog is pending while a fill is deferred.
	watchdog *sim.Event

	cur        txn
	fillData   []byte
	fillState  State
	responded  bool
	respOpen   bool
	respExcl   bool
	recallData []byte
	deferredAt sim.Time

	stepFn     func()
	respondFn  func([]byte)
	watchdogFn func()
}

type txnKind uint8

const (
	txnGetS txnKind = iota
	txnGetM
	txnRecall
	txnWriteback
)

type txn struct {
	kind  txnKind
	cache *Cache
	data  []byte // writeback payload, or the pending data of a GetM store
	done  func(data []byte)
	sdone func() // plain completion for Store/Evict
}

// dirStage names the protocol hop a line's next stepFn firing performs.
type dirStage uint8

const (
	stageIdle dirStage = iota
	stageFwdGetS
	stageInvOwner
	stageInvAcks
	stageUpgradeAck
	stageDeliver
	stageRecallData
	stageWbAck
)

// NewDirectory creates a home agent over the given backing store. The
// fabric must support coherence.
func NewDirectory(s *sim.Sim, p fabric.Params, backing Backing) *Directory {
	if !p.HasCoherence {
		panic(fmt.Sprintf("mesi: fabric %s has no coherence support", p.Name))
	}
	if backing == nil {
		panic("mesi: nil backing")
	}
	return &Directory{
		sim:          s,
		params:       p,
		backing:      backing,
		readLine:     backing.ReadLine,
		writeLine:    backing.WriteLine,
		lines:        newAddrTable[*dirLine](0),
		DeferTimeout: 50 * sim.Millisecond,
		BusError: func(addr LineAddr) {
			panic(fmt.Sprintf("mesi: protocol timeout (bus error) on deferred fill of line %#x", uint64(addr)))
		},
	}
}

// Params returns the directory's fabric parameters.
func (d *Directory) Params() fabric.Params { return d.params }

// Stats returns a snapshot of the protocol counters.
func (d *Directory) Stats() Stats { return d.stats }

// LineSize returns the coherence granule in bytes.
func (d *Directory) LineSize() int { return d.params.CacheLineSize }

// line returns the line's directory entry, allocating it (and its
// prebound protocol-step closures) on first touch.
//
//lhlint:hotpath
func (d *Directory) line(addr LineAddr) *dirLine {
	if l, ok := d.lines.get(addr); ok {
		return l
	}
	return d.newLine(addr)
}

// newLine allocates a line's entry and binds its three closures once;
// every later transaction on the line reuses them.
func (d *Directory) newLine(addr LineAddr) *dirLine {
	l := &dirLine{addr: addr}
	l.stepFn = func() { d.step(l) }
	l.respondFn = func(data []byte) { d.respond(l, data) }
	l.watchdogFn = func() { d.watchdogFired(l) }
	d.lines.put(addr, l)
	return l
}

// addSharer inserts c into the line's sharer set (idempotent).
//
//lhlint:hotpath
func (l *dirLine) addSharer(c *Cache) {
	for _, s := range l.sharers {
		if s == c {
			return
		}
	}
	l.sharers = append(l.sharers, c)
}

// dropSharer removes c from the line's sharer set, keeping order (sets are
// tiny; order stability keeps invalidation sequences reproducible).
//
//lhlint:hotpath
func (l *dirLine) dropSharer(c *Cache) {
	s := l.sharers
	for i, x := range s {
		if x == c {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			l.sharers = s[:len(s)-1]
			return
		}
	}
}

// halfFill is one direction of a fill round trip.
func (d *Directory) halfFill() sim.Time { return d.params.LineFill / 2 }

// enqueue admits a transaction to a line, serializing behind any in-flight
// transaction.
//
//lhlint:hotpath
func (d *Directory) enqueue(addr LineAddr, t txn) {
	l := d.line(addr)
	if l.busy {
		l.queue.Push(t)
		return
	}
	l.busy = true
	d.execute(l, t)
}

// finish completes the current transaction and starts the next queued one.
//
//lhlint:hotpath
func (d *Directory) finish(l *dirLine) {
	if l.queue.Len() == 0 {
		l.busy = false
		return
	}
	d.execute(l, l.queue.Pop())
}

func (d *Directory) execute(l *dirLine, t txn) {
	switch t.kind {
	case txnGetS:
		d.doGetS(l, t)
	case txnGetM:
		d.doGetM(l, t)
	case txnRecall:
		d.doRecall(l, t)
	case txnWriteback:
		d.doWriteback(l, t)
	default:
		panic("mesi: unknown txn kind")
	}
}

// hop schedules the line's next protocol step after delay d; the one
// prebound stepFn performs the stage recorded here.
//
//lhlint:hotpath
func (d *Directory) hop(l *dirLine, delay sim.Time, name string, st dirStage) {
	l.stage = st
	d.sim.After(delay, name, l.stepFn)
}

// step fires the line's staged protocol hop (see dirStage). One
// transaction is in flight per line, and every hop schedules at most one
// successor, so the stage field read here is exactly the one the
// scheduling site wrote.
//
//lhlint:hotpath
func (d *Directory) step(l *dirLine) {
	addr := l.addr
	st := l.stage
	l.stage = stageIdle
	switch st {
	case stageFwdGetS:
		// Dirty in another cache: the recall hop arrived at the owner.
		t := l.cur
		owner := l.owner
		data := owner.surrender(addr, Shared)
		d.writeLine(addr, data)
		l.owner = nil
		l.addSharer(owner)
		d.deliver(l, t, data, Shared)
	case stageInvOwner:
		owner := l.owner
		data := owner.surrender(addr, Invalid)
		d.stats.Invalidations.Inc()
		l.owner = nil
		d.getMInvalidated(l, data)
	case stageInvAcks:
		d.getMInvalidated(l, nil)
	case stageUpgradeAck:
		t := l.cur
		if t.data != nil {
			d.installStore(addr, t)
		} else if t.done != nil {
			t.done(nil)
		}
		d.finish(l)
	case stageDeliver:
		t := l.cur
		cp := l.fillData
		l.fillData = nil
		if l.fillState == Modified {
			l.owner = t.cache
			l.dropSharer(t.cache)
			if t.data != nil {
				// GetM carrying a pending store: install the store data
				// instead of the fill (the write overwrites the whole
				// line anyway).
				d.installStore(addr, t)
				d.finish(l)
				return
			}
		} else {
			l.addSharer(t.cache)
		}
		t.cache.grant(addr, cp, l.fillState)
		if t.done != nil {
			t.done(cp)
		}
		d.finish(l)
	case stageRecallData:
		t := l.cur
		out := l.recallData
		l.recallData = nil
		if out == nil {
			// Line was clean at home.
			if mb, ok := d.backing.(*MemBacking); ok {
				out = mb.Get(addr)
			}
		}
		if t.done != nil {
			t.done(out)
		}
		d.finish(l)
	case stageWbAck:
		t := l.cur
		if t.sdone != nil {
			t.sdone()
		}
		d.finish(l)
	default:
		panic("mesi: spurious protocol step")
	}
}

// installStore copies a GetM transaction's pending store data into the
// requesting cache as Modified and signals the store's completion.
//
//lhlint:hotpath
func (d *Directory) installStore(addr LineAddr, t txn) {
	cp := make([]byte, d.LineSize())
	copy(cp, t.data)
	t.cache.grant(addr, cp, Modified)
	if t.sdone != nil {
		t.sdone()
	}
}

// respond is the backing's fill response, delivered through the line's one
// prebound respondFn.
//
//lhlint:hotpath
func (d *Directory) respond(l *dirLine, data []byte) {
	if !l.respOpen {
		panic("mesi: backing responded twice")
	}
	l.respOpen = false
	if l.respExcl {
		d.deliver(l, l.cur, data, Modified)
		return
	}
	l.responded = true
	if w := l.watchdog; w != nil {
		d.sim.Cancel(w)
		l.watchdog = nil
	}
	if d.sim.Now() > l.deferredAt {
		d.stats.DeferredFills.Inc()
	}
	d.deliver(l, l.cur, data, Shared)
}

// watchdogFired is the deferred-fill timeout.
func (d *Directory) watchdogFired(l *dirLine) {
	// Clear the handle before anything else: once fired, the event
	// struct is recycled and must not reach a later Cancel.
	l.watchdog = nil
	if !l.responded {
		d.BusError(l.addr)
	}
}

// doGetS satisfies a read miss.
//
//lhlint:hotpath
func (d *Directory) doGetS(l *dirLine, t txn) {
	d.stats.Fills.Inc()
	l.cur = t
	if o := l.owner; o != nil && o != t.cache {
		// Dirty in another cache: recall to home (owner→home hop), write
		// through to backing, then forward to requester (home→req hop).
		d.hop(l, d.halfFill(), "mesi-fwd-gets", stageFwdGetS)
		return
	}
	// Clean (or requester already owns it): ask the backing. The backing
	// may defer; arm the watchdog.
	l.deferredAt = d.sim.Now()
	l.responded = false
	l.respOpen = true
	l.respExcl = false
	l.watchdog = d.sim.After(d.DeferTimeout, "mesi-watchdog", l.watchdogFn)
	d.readLine(l.addr, false, l.respondFn)
}

// doGetM satisfies a write miss / upgrade: invalidate everyone else, grant
// Modified.
//
//lhlint:hotpath
func (d *Directory) doGetM(l *dirLine, t txn) {
	d.stats.Upgrades.Inc()
	l.cur = t
	// Invalidate owner or sharers (one fabric hop, overlapped).
	if o := l.owner; o != nil && o != t.cache {
		d.hop(l, d.halfFill(), "mesi-inv-owner", stageInvOwner)
		return
	}
	n := 0
	s := l.sharers
	for i, c := range s {
		if c != t.cache {
			c.surrender(l.addr, Invalid)
			d.stats.Invalidations.Inc()
			n++
		}
		s[i] = nil
	}
	l.sharers = s[:0]
	if n > 0 {
		d.hop(l, d.halfFill(), "mesi-inv-acks", stageInvAcks)
		return
	}
	d.getMInvalidated(l, nil)
}

// getMInvalidated continues a GetM once every other copy is gone; dirty is
// the recalled owner data, if any.
//
//lhlint:hotpath
func (d *Directory) getMInvalidated(l *dirLine, dirty []byte) {
	addr := l.addr
	t := l.cur
	if dirty != nil {
		d.writeLine(addr, dirty)
		d.deliver(l, t, dirty, Modified)
		return
	}
	if t.cache.state(addr) == Shared {
		// Upgrade in place: cache has current data already.
		l.owner = t.cache
		l.dropSharer(t.cache)
		t.cache.grant(addr, nil, Modified)
		d.hop(l, d.params.LineWriteback, "mesi-upgrade-ack", stageUpgradeAck)
		return
	}
	l.respOpen = true
	l.respExcl = true
	d.readLine(addr, true, l.respondFn)
}

// deliver sends fill data to the requesting cache and completes the
// transaction.
//
//lhlint:hotpath
func (d *Directory) deliver(l *dirLine, t txn, data []byte, st State) {
	var cp []byte
	if t.data == nil || st != Modified {
		cp = make([]byte, d.LineSize())
		copy(cp, data)
	}
	l.cur = t
	l.fillData = cp
	l.fillState = st
	d.hop(l, d.halfFill(), "mesi-data", stageDeliver)
}

// doRecall implements the device-initiated FetchExclusive of Fig. 4: pull
// the line out of every cache (collecting dirty data) and return it to the
// home.
//
//lhlint:hotpath
func (d *Directory) doRecall(l *dirLine, t txn) {
	d.stats.Recalls.Inc()
	l.cur = t
	var data []byte
	if o := l.owner; o != nil {
		data = o.surrender(l.addr, Invalid)
		d.stats.Invalidations.Inc()
		l.owner = nil
	} else {
		s := l.sharers
		for i, c := range s {
			c.surrender(l.addr, Invalid)
			d.stats.Invalidations.Inc()
			s[i] = nil
		}
		l.sharers = s[:0]
	}
	if data != nil {
		d.writeLine(l.addr, data)
	}
	l.recallData = data
	d.hop(l, d.params.FetchExclusive, "mesi-recall-data", stageRecallData)
}

// doWriteback handles a voluntary eviction of a dirty line.
//
//lhlint:hotpath
func (d *Directory) doWriteback(l *dirLine, t txn) {
	d.stats.Writebacks.Inc()
	if l.owner == t.cache {
		l.owner = nil
	}
	d.writeLine(l.addr, t.data)
	l.cur = t
	d.hop(l, d.params.LineWriteback, "mesi-wb-ack", stageWbAck)
}

// Recall is the device-side FetchExclusive: the home pulls the line's
// current data out of the caches. done receives the data (nil if the
// backing is not a MemBacking and no cache was dirty).
func (d *Directory) Recall(addr LineAddr, done func(data []byte)) {
	d.enqueue(addr, txn{kind: txnRecall, done: done})
}

// Cache is one CPU core's coherent cache for lines homed at a set of
// directories. Capacity is unbounded (the lines of interest are few);
// evictions are explicit.
//
// Per-line state is three parallel slices: idx maps a line address to a
// slot, and st/buf/dir are indexed by it — one hash probe per operation
// where a map per field would pay three.
type Cache struct {
	name string
	sim  *sim.Sim
	idx  *addrTable[int32]
	st   []State
	buf  [][]byte
	dir  []*Directory
	home func(LineAddr) *Directory
	// chans stage outbound requests per directory (see reqChan); caches
	// talk to one directory in practice, so lookup is a linear scan.
	chans []*reqChan
}

// cacheReq is one outbound request staged on a reqChan while its fabric
// hop is in flight.
type cacheReq struct {
	kind  txnKind
	addr  LineAddr
	data  []byte
	done  func(data []byte)
	sdone func()
}

// reqChan carries a cache's requests to one directory. Every request hop
// to a given directory takes the same halfFill delay, so arrival order
// matches send order and the oldest staged request is always the one the
// next "mesi-gets"/"mesi-getm"/"mesi-putm" event delivers — the hop is
// scheduled with the channel's one prebound fire closure instead of a
// closure per miss.
type reqChan struct {
	c    *Cache
	d    *Directory
	q    fifo.Queue[cacheReq]
	fire func()
}

// chanFor returns (creating on first use) the request channel to d.
//
//lhlint:hotpath
func (c *Cache) chanFor(d *Directory) *reqChan {
	for _, ch := range c.chans {
		if ch.d == d {
			return ch
		}
	}
	ch := &reqChan{c: c, d: d}
	//lhlint:allow hotpath bound once per (cache, directory) pair on first use, then reused for every request hop
	ch.fire = func() { ch.arrive() }
	c.chans = append(c.chans, ch)
	return ch
}

// send stages a request and schedules its arrival at the directory.
//
//lhlint:hotpath
func (ch *reqChan) send(name string, r cacheReq) {
	ch.q.Push(r)
	ch.d.sim.After(ch.d.halfFill(), name, ch.fire)
}

// arrive hands the oldest staged request to the directory.
//
//lhlint:hotpath
func (ch *reqChan) arrive() {
	r := ch.q.Pop()
	ch.d.enqueue(r.addr, txn{kind: r.kind, cache: ch.c, data: r.data, done: r.done, sdone: r.sdone})
}

// NewCache creates a cache whose home lookup function routes each line to
// its directory.
func NewCache(s *sim.Sim, name string, home func(LineAddr) *Directory) *Cache {
	if home == nil {
		panic("mesi: nil home lookup")
	}
	return &Cache{
		name: name,
		sim:  s,
		idx:  newAddrTable[int32](0),
		home: home,
	}
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// slot returns the line's index, allocating parallel-array entries on
// first touch. Slots are permanent; a line evicted to Invalid keeps its
// slot for the next fill.
//
//lhlint:hotpath
func (c *Cache) slot(addr LineAddr) int32 {
	if i, ok := c.idx.get(addr); ok {
		return i
	}
	i := int32(len(c.st))
	c.idx.put(addr, i)
	c.st = append(c.st, Invalid)
	c.buf = append(c.buf, nil)
	c.dir = append(c.dir, nil)
	return i
}

//lhlint:hotpath
func (c *Cache) dirAt(i int32, addr LineAddr) *Directory {
	if d := c.dir[i]; d != nil {
		return d
	}
	d := c.home(addr)
	if d == nil {
		panicNoHome(addr)
	}
	c.dir[i] = d
	return d
}

// panicNoHome keeps the fmt boxing of the missing-home panic off dirAt's
// hot path; it never returns.
func panicNoHome(addr LineAddr) {
	panic(fmt.Sprintf("mesi: no home for line %#x", uint64(addr)))
}

// State reports the cache's current state for the line.
//
//lhlint:hotpath
func (c *Cache) State(addr LineAddr) State {
	if i, ok := c.idx.get(addr); ok {
		return c.st[i]
	}
	return Invalid
}

func (c *Cache) state(addr LineAddr) State { return c.State(addr) }

// Data returns the cached copy (nil if Invalid).
func (c *Cache) Data(addr LineAddr) []byte {
	i, ok := c.idx.get(addr)
	if !ok || c.st[i] == Invalid {
		return nil
	}
	return c.buf[i]
}

// grant installs fill data (nil data means upgrade-in-place).
//
//lhlint:hotpath
func (c *Cache) grant(addr LineAddr, data []byte, st State) {
	i := c.slot(addr)
	c.st[i] = st
	if data != nil {
		c.buf[i] = data
	}
}

// surrender downgrades the line to st and returns the (possibly dirty)
// data.
//
//lhlint:hotpath
func (c *Cache) surrender(addr LineAddr, st State) []byte {
	i := c.slot(addr)
	data := c.buf[i]
	c.st[i] = st
	if st == Invalid {
		c.buf[i] = nil
	}
	return data
}

// Load performs a coherent read. On a hit, done runs immediately (L1 hit
// cost is inside the CPU cycle budget, not the fabric's). On a miss, a GetS
// is issued to the home; done runs when the fill arrives — possibly much
// later if the home defers (Lauberhorn's stalled load).
//
//lhlint:hotpath
func (c *Cache) Load(addr LineAddr, done func(data []byte)) {
	i := c.slot(addr)
	if st := c.st[i]; st == Shared || st == Modified {
		done(c.buf[i])
		return
	}
	d := c.dirAt(i, addr)
	c.chanFor(d).send("mesi-gets", cacheReq{kind: txnGetS, addr: addr, done: done})
}

// Store performs a coherent full-line write: obtains Modified (invalidating
// other copies) and installs data. done runs when ownership is granted.
//
//lhlint:hotpath
func (c *Cache) Store(addr LineAddr, data []byte, done func()) {
	i := c.slot(addr)
	d := c.dirAt(i, addr)
	if c.st[i] == Modified {
		cp := make([]byte, d.LineSize())
		copy(cp, data)
		c.buf[i] = cp
		if done != nil {
			done()
		}
		return
	}
	// Miss or upgrade: ship the pending store data with the GetM; the
	// directory installs it when ownership is granted.
	c.chanFor(d).send("mesi-getm", cacheReq{kind: txnGetM, addr: addr, data: data, sdone: done})
}

// Evict voluntarily drops the line, writing back dirty data. done runs when
// the home acknowledges.
func (c *Cache) Evict(addr LineAddr, done func()) {
	i := c.slot(addr)
	st := c.st[i]
	if st == Invalid {
		if done != nil {
			done()
		}
		return
	}
	d := c.dirAt(i, addr)
	if st == Shared {
		// Silent drop; the directory's sharer set is allowed to be stale
		// (it will send a harmless invalidation later).
		c.surrender(addr, Invalid)
		if done != nil {
			done()
		}
		return
	}
	data := c.surrender(addr, Invalid)
	c.chanFor(d).send("mesi-putm", cacheReq{kind: txnWriteback, addr: addr, data: data, sdone: done})
}
