package rtp

import (
	"time"
)

// ClockRate is the media timestamp clock used throughout the service.
// RFC 1890 mandates 90 kHz for video; we use it uniformly so jitter values
// from different streams are comparable.
const ClockRate = 90000

// ToTimestamp converts a scenario-relative duration to RTP timestamp units.
func ToTimestamp(d time.Duration) uint32 {
	return uint32(int64(d) * ClockRate / int64(time.Second))
}

// FromTimestamp converts RTP timestamp units back to a duration.
func FromTimestamp(ts uint32) time.Duration {
	return time.Duration(int64(ts) * int64(time.Second) / ClockRate)
}

// Sender tracks one outgoing RTP stream's state: sequence numbers,
// timestamps and the counters carried by sender reports.
type Sender struct {
	SSRC        uint32
	PayloadType PayloadType
	seq         uint16
	packets     uint32
	octets      uint32
}

// NewSender creates a sender with the given SSRC and initial sequence
// number.
func NewSender(ssrc uint32, pt PayloadType, firstSeq uint16) *Sender {
	return &Sender{SSRC: ssrc, PayloadType: pt, seq: firstSeq}
}

// Next builds the next data packet for payload sampled at media time ts.
func (s *Sender) Next(ts time.Duration, payload []byte, marker bool) *Packet {
	p := &Packet{
		Marker:         marker,
		PayloadType:    s.PayloadType,
		SequenceNumber: s.seq,
		Timestamp:      ToTimestamp(ts),
		SSRC:           s.SSRC,
		Payload:        payload,
	}
	s.advance(len(payload))
	return p
}

// AppendNext appends the next data packet's 12-byte header to dst and
// accounts for a payload of payloadLen bytes, advancing the sequence number
// and the sender-report counters exactly as Next does. The caller appends
// the payload itself — this is the allocation-free half of single-pass
// packet assembly: RTP header, frame header and payload land in one pooled
// buffer with no intermediate slices.
func (s *Sender) AppendNext(dst []byte, ts time.Duration, marker bool, payloadLen int) []byte {
	dst = AppendHeader(dst, marker, s.PayloadType, s.seq, ToTimestamp(ts), s.SSRC)
	s.advance(payloadLen)
	return dst
}

func (s *Sender) advance(payloadLen int) {
	s.seq++
	s.packets++
	s.octets += uint32(payloadLen)
}

// Report builds a sender report at wall time now with media time ts.
func (s *Sender) Report(now time.Time, ts time.Duration) *SenderReport {
	return &SenderReport{
		SSRC:        s.SSRC,
		NTPTime:     NTPTime(now),
		RTPTime:     ToTimestamp(ts),
		PacketCount: s.packets,
		OctetCount:  s.octets,
	}
}

// PacketCount returns the number of packets sent.
func (s *Sender) PacketCount() uint32 { return s.packets }

// Seq returns the sequence number the next packet will carry.
func (s *Sender) Seq() uint16 { return s.seq }

// Fork returns an independent copy of the sender's full transmission state:
// same SSRC, payload type, next sequence number and report counters. A
// receiver that switches from the original to the fork (or vice versa) sees
// one seamless stream — this is how a shared-flow subscriber forks onto a
// private flow without a sequence or timestamp discontinuity.
func (s *Sender) Fork() *Sender {
	cp := *s
	return &cp
}

// Receiver tracks one incoming RTP stream and computes the RFC 1889
// reception statistics: extended highest sequence number (with wraparound),
// cumulative and interval loss, and the standard interarrival jitter
// estimator (RFC 1889 §A.8):
//
//	D = (Rj - Ri) - (Sj - Si)
//	J += (|D| - J) / 16
type Receiver struct {
	SSRC uint32 // remote source

	initialized bool
	baseSeq     uint32
	maxSeq      uint16
	cycles      uint32
	received    uint32

	// jitter state
	lastTransit time.Duration
	jitter      float64 // in timestamp units

	// interval state for fraction-lost
	expectedPrior uint32
	receivedPrior uint32

	// delay accounting (one-way transit, comparable only with
	// synchronized clocks — true in simulation, approximate otherwise)
	lastDelay time.Duration
}

// NewReceiver tracks packets from the given source SSRC.
func NewReceiver(ssrc uint32) *Receiver { return &Receiver{SSRC: ssrc} }

// Observe processes one arrived packet. arrival is the local receive time
// and sent is the sender's wall-clock send time when known (zero time means
// unknown: delay statistics are skipped, jitter still works since it only
// uses timestamps).
func (r *Receiver) Observe(p *Packet, arrival time.Time, sent time.Time) {
	seq := p.SequenceNumber
	if !r.initialized {
		r.initialized = true
		r.baseSeq = uint32(seq)
		r.maxSeq = seq
	} else {
		// Detect wraparound: a big backwards jump means the 16-bit
		// counter cycled.
		if seq < r.maxSeq && r.maxSeq-seq > 0x8000 {
			r.cycles += 1 << 16
			r.maxSeq = seq
		} else if seq > r.maxSeq || r.maxSeq-seq > 0x8000 {
			r.maxSeq = seq
		}
	}
	r.received++

	// Jitter: compare arrival spacing to timestamp spacing.
	arrivalTS := time.Duration(arrival.UnixNano()) // monotonic enough within a session
	transit := arrivalTS - FromTimestamp(p.Timestamp)
	if r.lastTransit != 0 {
		d := transit - r.lastTransit
		if d < 0 {
			d = -d
		}
		dTS := float64(ToTimestamp(d))
		r.jitter += (dTS - r.jitter) / 16
	}
	r.lastTransit = transit

	if !sent.IsZero() {
		r.lastDelay = arrival.Sub(sent)
	}
}

// ExtendedHighSeq returns the RFC 1889 extended highest sequence number.
func (r *Receiver) ExtendedHighSeq() uint32 { return r.cycles + uint32(r.maxSeq) }

// Expected returns the number of packets the receiver should have seen.
func (r *Receiver) Expected() uint32 {
	if !r.initialized {
		return 0
	}
	return r.ExtendedHighSeq() - r.baseSeq + 1
}

// Received returns the number of packets actually seen.
func (r *Receiver) Received() uint32 { return r.received }

// CumulativeLost returns total losses over the session (may be negative
// with duplicates; clamped at 0 here since the simulator never duplicates).
func (r *Receiver) CumulativeLost() int32 {
	lost := int64(r.Expected()) - int64(r.received)
	if lost < 0 {
		lost = 0
	}
	return int32(lost)
}

// Jitter returns the current interarrival jitter estimate in timestamp
// units.
func (r *Receiver) Jitter() uint32 { return uint32(r.jitter) }

// JitterDuration returns the jitter estimate as a time duration.
func (r *Receiver) JitterDuration() time.Duration { return FromTimestamp(uint32(r.jitter)) }

// LastDelay returns the most recent one-way transit estimate.
func (r *Receiver) LastDelay() time.Duration { return r.lastDelay }

// Report builds this source's reception report block and resets the
// interval counters (fraction lost covers the span since the previous
// Report call, per RFC 1889 §A.3).
func (r *Receiver) Report() ReceptionReport {
	expected := r.Expected()
	expectedInt := expected - r.expectedPrior
	receivedInt := r.received - r.receivedPrior
	r.expectedPrior = expected
	r.receivedPrior = r.received
	var fraction uint8
	if expectedInt > 0 && expectedInt > receivedInt {
		fraction = uint8((expectedInt - receivedInt) * 256 / expectedInt)
	}
	return ReceptionReport{
		SSRC:            r.SSRC,
		FractionLost:    fraction,
		CumulativeLost:  r.CumulativeLost(),
		ExtendedHighSeq: r.ExtendedHighSeq(),
		Jitter:          r.Jitter(),
	}
}
