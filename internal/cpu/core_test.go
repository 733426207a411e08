package cpu

import (
	"testing"

	"dagguise/internal/cache"
	"dagguise/internal/config"
	"dagguise/internal/mem"
	"dagguise/internal/trace"
)

// fixedLatencyPort completes every request a fixed delay after enqueue.
type fixedLatencyPort struct {
	latency  uint64
	inflight []mem.Response
	due      []uint64
	capacity int
	accepted uint64
	writes   uint64
}

func (p *fixedLatencyPort) Room(uint64) bool {
	return p.capacity == 0 || len(p.inflight) < p.capacity
}

func (p *fixedLatencyPort) TryEnqueue(req mem.Request, now uint64) bool {
	if !p.Room(now) {
		return false
	}
	if req.Kind == mem.Write {
		p.writes++
		return true // writes complete silently
	}
	p.accepted++
	p.inflight = append(p.inflight, mem.Response{ID: req.ID, Addr: req.Addr, Kind: req.Kind, Domain: req.Domain})
	p.due = append(p.due, now+p.latency)
	return true
}

func (p *fixedLatencyPort) deliver(c *Core, now uint64) {
	keepR := p.inflight[:0]
	keepD := p.due[:0]
	for i := range p.inflight {
		if p.due[i] <= now {
			r := p.inflight[i]
			r.Completion = now
			c.OnResponse(r, now)
		} else {
			keepR = append(keepR, p.inflight[i])
			keepD = append(keepD, p.due[i])
		}
	}
	p.inflight = keepR
	p.due = keepD
}

func tinyCaches(t testing.TB) *cache.Hierarchy {
	t.Helper()
	cfg := config.Default(1, config.Insecure)
	cfg.L1 = config.CacheLevel{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, LatencyCycles: 4}
	cfg.L2 = config.CacheLevel{SizeBytes: 2 << 10, Ways: 4, LineBytes: 64, LatencyCycles: 13}
	cfg.L3 = config.CacheLevel{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, LatencyCycles: 42}
	h, err := cache.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func idAlloc() IDAlloc {
	n := uint64(0)
	return func() uint64 { n++; return n }
}

func coreCfg() config.CoreConfig {
	return config.CoreConfig{IssueWidth: 8, ROBEntries: 192, MSHRs: 16}
}

// missTrace builds n independent loads to distinct lines far apart (always
// missing the tiny caches), each preceded by gap instructions.
func missTrace(n, gap, dep int) *trace.Slice {
	ops := make([]trace.Op, n)
	for i := range ops {
		ops[i] = trace.Op{Addr: uint64(i) * (1 << 16), Kind: mem.Read, Gap: gap, Dep: dep}
	}
	return &trace.Slice{Ops: ops}
}

func run(c *Core, p *fixedLatencyPort, cycles uint64) {
	for now := uint64(0); now < cycles && !c.Done(); now++ {
		c.Tick(now)
		p.deliver(c, now)
	}
}

func TestComputeBoundIPCNearIssueWidth(t *testing.T) {
	ops := make([]trace.Op, 100)
	for i := range ops {
		ops[i] = trace.Op{Addr: 0x40, Kind: mem.Read, Gap: 100}
	}
	// First access misses; all later hit L1.
	p := &fixedLatencyPort{latency: 100}
	c := New(0, &trace.Slice{Ops: ops}, tinyCaches(t), coreCfg(), p, idAlloc())
	run(c, p, 100000)
	if !c.Done() {
		t.Fatal("trace did not finish")
	}
	ipc := c.Stats().IPC()
	if ipc < 5.0 {
		t.Fatalf("compute-bound IPC = %.2f, want near issue width 8", ipc)
	}
}

func TestMemoryLatencySensitivity(t *testing.T) {
	mkIPC := func(latency uint64) float64 {
		p := &fixedLatencyPort{latency: latency}
		c := New(0, missTrace(300, 10, 1), tinyCaches(t), coreCfg(), p, idAlloc())
		run(c, p, 1_000_000)
		if !c.Done() {
			t.Fatalf("trace stuck at latency %d", latency)
		}
		return c.Stats().IPC()
	}
	fast := mkIPC(50)
	slow := mkIPC(500)
	if !(fast > slow*2) {
		t.Fatalf("dependent-miss IPC not latency sensitive: fast=%.3f slow=%.3f", fast, slow)
	}
}

func TestMLPOverlapsIndependentMisses(t *testing.T) {
	p1 := &fixedLatencyPort{latency: 200}
	serial := New(0, missTrace(200, 5, 1), tinyCaches(t), coreCfg(), p1, idAlloc())
	run(serial, p1, 1_000_000)
	p2 := &fixedLatencyPort{latency: 200}
	parallel := New(0, missTrace(200, 5, 0), tinyCaches(t), coreCfg(), p2, idAlloc())
	run(parallel, p2, 1_000_000)
	if !serial.Done() || !parallel.Done() {
		t.Fatal("traces did not finish")
	}
	sIPC, pIPC := serial.Stats().IPC(), parallel.Stats().IPC()
	if !(pIPC > sIPC*3) {
		t.Fatalf("independent misses not overlapped: serial=%.3f parallel=%.3f", sIPC, pIPC)
	}
}

func TestMSHRLimitsOutstanding(t *testing.T) {
	cfg := coreCfg()
	cfg.MSHRs = 4
	p := &fixedLatencyPort{latency: 10_000}
	c := New(0, missTrace(100, 0, 0), tinyCaches(t), cfg, p, idAlloc())
	maxOut := 0
	for now := uint64(0); now < 5000; now++ {
		c.Tick(now)
		if c.Outstanding() > maxOut {
			maxOut = c.Outstanding()
		}
	}
	if maxOut > 4 {
		t.Fatalf("outstanding reached %d with 4 MSHRs", maxOut)
	}
	if maxOut != 4 {
		t.Fatalf("outstanding never reached the MSHR limit: %d", maxOut)
	}
}

func TestPortBackpressureRetries(t *testing.T) {
	p := &fixedLatencyPort{latency: 50, capacity: 1}
	c := New(0, missTrace(20, 0, 0), tinyCaches(t), coreCfg(), p, idAlloc())
	run(c, p, 200_000)
	if !c.Done() {
		t.Fatal("core deadlocked under port backpressure")
	}
	if p.accepted != 20 {
		t.Fatalf("accepted %d reads, want 20 (no duplicates, no losses)", p.accepted)
	}
}

func TestWritebacksReachPort(t *testing.T) {
	// Dirty many lines then stream reads to force dirty evictions.
	var ops []trace.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, trace.Op{Addr: uint64(i) * 64 * 8, Kind: mem.Write, Gap: 1})
	}
	for i := 0; i < 512; i++ {
		ops = append(ops, trace.Op{Addr: uint64(1<<20) + uint64(i)*64*8, Kind: mem.Read, Gap: 1})
	}
	p := &fixedLatencyPort{latency: 30}
	c := New(0, &trace.Slice{Ops: ops}, tinyCaches(t), coreCfg(), p, idAlloc())
	run(c, p, 1_000_000)
	if !c.Done() {
		t.Fatal("trace did not finish")
	}
	if p.writes == 0 {
		t.Fatal("no writebacks reached the memory port")
	}
	if c.Stats().Writebacks != p.writes {
		t.Fatalf("core counted %d writebacks, port saw %d", c.Stats().Writebacks, p.writes)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := &fixedLatencyPort{latency: 30}
	c := New(3, missTrace(10, 7, 0), tinyCaches(t), coreCfg(), p, idAlloc())
	run(c, p, 100_000)
	st := c.Stats()
	if st.MemOps != 10 {
		t.Fatalf("mem ops = %d, want 10", st.MemOps)
	}
	if st.Instructions != 10*8 {
		t.Fatalf("instructions = %d, want 80 (10 ops with gap 7)", st.Instructions)
	}
	if c.Domain() != 3 {
		t.Fatal("domain lost")
	}
}

func TestLoopedTraceNeverDone(t *testing.T) {
	p := &fixedLatencyPort{latency: 30}
	src := &trace.Loop{Inner: missTrace(5, 2, 0)}
	c := New(0, src, tinyCaches(t), coreCfg(), p, idAlloc())
	for now := uint64(0); now < 10_000; now++ {
		c.Tick(now)
		p.deliver(c, now)
	}
	if c.Done() {
		t.Fatal("looped trace reported done")
	}
	if src.Wraps == 0 {
		t.Fatal("trace never wrapped")
	}
}
