package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/protocol"
)

// makeCtrlPacket frames one control message from the fake client, for
// injecting straight into the server's handler.
func makeCtrlPacket(mt protocol.MsgType, body interface{}) netsim.Packet {
	return netsim.Packet{
		From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
		Payload: protocol.MustEncode(mt, body), Reliable: true,
	}
}

// BenchmarkDataPlane measures parallel emit throughput at 1, 8 and 64
// sessions; frames/s should grow with session count because senders pace
// off their own locks, not the control-plane shard locks.
func BenchmarkDataPlane(b *testing.B) {
	for _, sessions := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunDataPlaneLoad(DataPlaneConfig{
					Sessions:        sessions,
					FramesPerSender: 100,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.PumpFrames == 0 {
					b.Fatal("pump phase emitted nothing")
				}
				b.ReportMetric(res.FramesPerSec, "frames/s")
				b.ReportMetric(res.EmitP95Micros, "emit-p95-µs")
				b.ReportMetric(res.PumpAllocsPerFrame, "pump-allocs/frame")
				b.ReportMetric(res.PumpAllocBytesPerFrame, "pump-alloc-B/frame")
				b.ReportMetric(res.PacedAllocsPerFrame, "paced-allocs/frame")
				b.ReportMetric(res.PacedAllocBytesPerFrame, "paced-alloc-B/frame")
			}
		})
	}
}

// TestDataPlaneEmitOffGlobalLock is the data plane's core invariant: during
// a paced emit window no control-plane shard write lock is taken — media
// pacing runs entirely on per-sender locks plus the QoS manager's read lock.
func TestDataPlaneEmitOffGlobalLock(t *testing.T) {
	res, err := RunDataPlaneLoad(DataPlaneConfig{Sessions: 4, FramesPerSender: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacedFrames == 0 {
		t.Fatal("paced phase emitted nothing; the window measured no traffic")
	}
	if res.PacedLockAcqs != 0 {
		t.Fatalf("shard write locks acquired %d times during paced emission of %d frames; "+
			"the per-frame path must stay off the global lock",
			res.PacedLockAcqs, res.PacedFrames)
	}
	if res.Senders < 4*5 {
		t.Fatalf("senders = %d; the lesson doc should give each session several streams", res.Senders)
	}
}

// TestDataPlaneRaceStress hammers the emit path from per-sender goroutines
// while the control plane concurrently pauses, resumes, reloads, suspends and
// processes feedback. Run under -race (make race / make check) this proves
// the split locking is sound; sized modestly so it stays cheap in plain runs.
func TestDataPlaneRaceStress(t *testing.T) {
	h := newHarness(t, Options{})
	h.send(protocol.MsgConnect, protocol.Connect{User: "u", Password: "p"})
	h.send(protocol.MsgDocRequest, protocol.DocRequest{Name: "doc"})

	sess, unlock := h.srv.lockedSession(fakeClient)
	if sess == nil {
		unlock()
		t.Fatal("no session")
	}
	snds := make([]*sender, 0, len(sess.senders))
	for _, snd := range sess.senders {
		snds = append(snds, snd)
	}
	unlock()
	if len(snds) == 0 {
		t.Fatal("no senders")
	}

	var wg sync.WaitGroup
	for _, snd := range snds {
		wg.Add(1)
		go func(snd *sender) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				snd.fl.Load().pump(10)
				_ = snd.stats()
				_ = snd.nominalRate()
			}
		}(snd)
	}
	// Control plane churn against the same session, through the real
	// handler so it exercises the same paths as live traffic.
	ops := []protocol.MsgType{
		protocol.MsgPause, protocol.MsgResume, protocol.MsgReload,
		protocol.MsgPause, protocol.MsgResume,
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			for _, mt := range ops {
				h.srv.handle(makeCtrlPacket(mt, protocol.MediaOp{}))
			}
			h.srv.queueRenegotiate(sess)
		}
	}()
	wg.Wait()

	// The session must still be coherent: a reload left pacing armed and a
	// final resume is a no-op, not a crash.
	h.send(protocol.MsgResume, protocol.MediaOp{})
	h.clk.RunFor(2 * time.Second)
}
