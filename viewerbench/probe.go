package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/server"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spScript       spanKind = iota // the benchmark's session scripts calling the client API
	spServerTimer                  // clock callbacks armed from internal/server
	spClientTimer                  // ... from internal/client
	spPlayoutTimer                 // ... from internal/playout
	spOtherTimer                   // ... from any other package
	spServerCtrl                   // packets delivered to a server control port
	spServerMedia                  // ... to a server media port (RTCP feedback)
	spClientCtrl                   // ... to a client control port
	spClientMedia                  // ... to a client media port
	spNetSend                      // netsim Send
	spNetSendMulti                 // netsim SendMulti
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"script", "server.timer", "client.timer", "playout.timer", "other.timer",
	"server.ctrl", "server.media", "client.ctrl", "client.media",
	"netsim.send", "netsim.send_multi",
}

// span is one recorded layer crossing. Times are nanoseconds since the
// tracer's base; parent is the index of the enclosing span, -1 at top level.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// tracer records spans in memory for one single-threaded simulation and
// accumulates per-kind self time as spans close. The simulation runs every
// callback on the goroutine driving the virtual clock, so spans nest
// strictly and one stack suffices.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	// covered[i] is the time the children of stack[i] have covered so far.
	covered []int64

	self  [numSpanKinds]int64
	count [numSpanKinds]int64
	// topLevel is the summed duration of spans with no parent: the part of
	// the clock's run that some layer claimed.
	topLevel int64

	armed   [numSpanKinds]int64 // AfterFunc calls, by the arming package's timer kind
	dests   int64               // destinations across SendMulti calls
	pcKinds map[uintptr]spanKind
	pcBuf   [1]uintptr
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), pcKinds: map[uintptr]spanKind{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(k spanKind) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, start: t.now()})
	t.stack = append(t.stack, int32(len(t.spans)-1))
	t.covered = append(t.covered, 0)
}

func (t *tracer) end() {
	now := t.now()
	n := len(t.stack) - 1
	sp := &t.spans[t.stack[n]]
	sp.end = now
	d := now - sp.start
	t.self[sp.kind] += d - t.covered[n]
	t.count[sp.kind]++
	t.stack = t.stack[:n]
	t.covered = t.covered[:n]
	if n > 0 {
		t.covered[n-1] += d
	} else {
		t.topLevel += d
	}
}

// timerKind attributes a timer to the package that armed it: pc is the
// caller of AfterFunc.
func (t *tracer) timerKind(pc uintptr) spanKind {
	if k, ok := t.pcKinds[pc]; ok {
		return k
	}
	k := spOtherTimer
	if fn := runtime.FuncForPC(pc); fn != nil {
		name := fn.Name()
		switch {
		case strings.HasPrefix(name, "repro/internal/server."):
			k = spServerTimer
		case strings.HasPrefix(name, "repro/internal/client."):
			k = spClientTimer
		case strings.HasPrefix(name, "repro/internal/playout."):
			k = spPlayoutTimer
		}
	}
	t.pcKinds[pc] = k
	return k
}

// writeSpans writes every recorded span as one tab-separated line (kind,
// parent index, start ns, end ns) under dir.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "# kind\tparent\tstart_ns\tend_ns\n")
	var line []byte
	for _, sp := range t.spans {
		line = append(line[:0], spanNames[sp.kind]...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(sp.parent), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, sp.start, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, sp.end, 10)
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// probeClock wraps the clock the server and browsers see. Every AfterFunc
// callback becomes a span attributed to the arming package; Now and Since
// pass straight through, so the simulation is unchanged.
type probeClock struct {
	inner clock.Clock
	tr    *tracer
}

func (c *probeClock) Now() time.Time                  { return c.inner.Now() }
func (c *probeClock) Since(t time.Time) time.Duration { return c.inner.Since(t) }

func (c *probeClock) AfterFunc(d time.Duration, fn func()) *clock.Timer {
	runtime.Callers(2, c.tr.pcBuf[:])
	k := c.tr.timerKind(c.tr.pcBuf[0])
	c.tr.armed[k]++
	tr := c.tr
	return c.inner.AfterFunc(d, func() {
		tr.begin(k)
		fn()
		tr.end()
	})
}

// probeNet wraps the network the server and browsers see: sends become
// netsim spans and every registered handler becomes a span of the receiving
// component and port class.
type probeNet struct {
	inner   netsim.Net
	tr      *tracer
	servers map[string]bool
}

// probeMultiNet is a probeNet over a transport with one-transmission
// fan-out. It keeps the netsim.MultiSender method, so the server's
// assertion still selects the shared-flow multicast path.
type probeMultiNet struct {
	*probeNet
	multi netsim.MultiSender
}

// newProbeNet wraps inner, keeping MultiSender exactly when inner has it.
func newProbeNet(inner netsim.Net, tr *tracer, servers map[string]bool) netsim.Net {
	p := &probeNet{inner: inner, tr: tr, servers: servers}
	if ms, ok := inner.(netsim.MultiSender); ok {
		return &probeMultiNet{probeNet: p, multi: ms}
	}
	return p
}

func (p *probeNet) Send(pkt netsim.Packet) error {
	p.tr.begin(spNetSend)
	err := p.inner.Send(pkt)
	p.tr.end()
	return err
}

func (p *probeMultiNet) SendMulti(pkt netsim.Packet, tos []netsim.Addr) error {
	p.tr.begin(spNetSendMulti)
	err := p.multi.SendMulti(pkt, tos)
	p.tr.end()
	p.tr.dests += int64(len(tos))
	return err
}

func (p *probeNet) Listen(addr netsim.Addr, h netsim.Handler) error {
	if h == nil {
		return p.inner.Listen(addr, nil)
	}
	k := p.handlerKind(addr)
	tr := p.tr
	return p.inner.Listen(addr, func(pkt netsim.Packet) {
		tr.begin(k)
		h(pkt)
		tr.end()
	})
}

// handlerKind classifies a listening address by component (server or
// browser host) and port class (the control ports, or media).
func (p *probeNet) handlerKind(addr netsim.Addr) spanKind {
	port := strings.TrimPrefix(string(addr), addr.Host()+":")
	if p.servers[addr.Host()] {
		if port == strconv.Itoa(server.ControlPort) {
			return spServerCtrl
		}
		return spServerMedia
	}
	if port == strconv.Itoa(clientCtrlPort) {
		return spClientCtrl
	}
	return spClientMedia
}

var _ netsim.MultiSender = (*probeMultiNet)(nil)
