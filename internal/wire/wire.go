// Package wire is the binary codec for the 3V protocol's network
// frames. Every payload type in internal/core/messages.go (plus the
// reliable session envelopes) has a fixed type id in an explicit
// registry; frames are length-prefixed and carry a format version byte
// so incompatible peers fail fast instead of misparsing.
//
// Frame layout (length prefix first, then the frame body):
//
//	uint32 BE  body length (version byte through end of payload)
//	byte       format version (FormatVersion)
//	message:
//	  byte     flags (bit 0 = trace context follows; other bits must be zero)
//	  uvarint  trace id       (flag bit 0 only)
//	  uvarint  parent span id (flag bit 0 only)
//	  varint   From node id
//	  varint   To node id
//	  uvarint  payload type id (see the registry below)
//	  ...      payload body, type-specific
//
// Every message — traced or not, alone or inside a batch — has that one
// layout. A transport.BatchMsg is an ordinary payload whose body is a
// uvarint count followed by that many messages; it is valid only as the
// frame's own payload, never inside another payload.
//
// Integers use the varint encodings from encoding/binary: unsigned
// quantities (versions, txn ids, sequence numbers, counts) are
// uvarints; signed quantities (node ids, deltas, counter values) are
// zig-zag varints. Strings are a uvarint length followed by raw bytes.
// Booleans are one byte (0/1, anything else is a decode error).
//
// Encoding is a type switch — no reflection on the hot path — and
// appends into a caller-supplied buffer, so steady-state encoding does
// not allocate. Decoding allocates the payload structs it returns
// (interface boxing is unavoidable with transport.Message carrying
// `any`); slice allocations are bounds-checked against the remaining
// input so corrupt or adversarial frames cannot provoke huge
// allocations.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
)

// FormatVersion is the frame format generation. Any other version byte
// is rejected (ErrVersion) — peers must run the same format. Values 1–4
// were earlier generations and are never reused.
const FormatVersion = 5

// Message header flag bits.
const flagTraceContext = 1 << 0

// nest says where a payload sits, for the two nesting rules: a batch is
// valid only as the frame's own payload, and a session envelope may not
// wrap another session envelope.
type nest uint8

const (
	atTop     nest = iota // the frame's own payload
	inBatch               // a batch member's payload
	inSession             // the body of a reliable.DataMsg
)

// MaxFrame bounds the body length a reader will accept: 16 MiB is far
// above any real protocol message (counter replies grow linearly with
// cluster size; a 1M-node row would still fit) while keeping a corrupt
// length prefix from provoking a giant allocation.
const MaxFrame = 16 << 20

// Payload type ids. These are wire contract: never renumber, only
// append. The names must match the transport payload-name registry
// (internal/core and transport/reliable register them in init; the
// agreement is asserted by TestNamesMatchTransportRegistry).
const (
	idSubtxn           = 1
	idStartAdvancement = 2
	idAckAdvancement   = 3
	idReadVersion      = 4
	idAckReadVersion   = 5
	idGC               = 6
	idAckGC            = 7
	idCounterReq       = 8
	idCounterReply     = 9
	idNCVote           = 10
	idNCDecision       = 11
	idVersionProbe     = 12
	idVersionReply     = 13
	idUnlock           = 14
	idReliableData     = 15
	idReliableAck      = 16
	idReliableNoop     = 17
	idSpanReport       = 18
	idCoordState       = 19
	idStaleTerm        = 20
	idBatch            = 21
	idCounters         = 22
	idCountersReq      = 23
	// 24 carried the retired replication lease heartbeat and 25 the
	// retired replication ack; never reuse them.
)

// Op kind bytes inside SubtxnSpec updates.
const (
	opAdd    = 1
	opAppend = 2
	opRemove = 3
	opSet    = 4
	opScale  = 5
)

// maxSpecDepth bounds SubtxnSpec child recursion on decode. Real trees
// are a handful of levels; 64 is generous and keeps a malicious frame
// from exhausting the stack.
const maxSpecDepth = 64

var (
	// ErrVersion reports a frame from an incompatible format generation.
	ErrVersion = errors.New("wire: unsupported format version")
	// ErrTruncated reports a frame body shorter than its payload needs.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrTrailing reports unconsumed bytes after a complete payload.
	ErrTrailing = errors.New("wire: trailing bytes after payload")
	// ErrUnknownType reports a payload type id outside the registry.
	ErrUnknownType = errors.New("wire: unknown payload type")
)

// TypeName returns the stable registry name for a payload type id
// ("subtxn", "counter_reply", ...), or "" for unknown ids. The names
// agree with transport.PayloadName for the corresponding Go types.
func TypeName(id uint64) string {
	switch id {
	case idSubtxn:
		return "subtxn"
	case idStartAdvancement:
		return "start_advancement"
	case idAckAdvancement:
		return "ack_advancement"
	case idReadVersion:
		return "read_version"
	case idAckReadVersion:
		return "ack_read_version"
	case idGC:
		return "gc"
	case idAckGC:
		return "ack_gc"
	case idCounterReq:
		return "counter_req"
	case idCounterReply:
		return "counter_reply"
	case idNCVote:
		return "nc_vote"
	case idNCDecision:
		return "nc_decision"
	case idVersionProbe:
		return "version_probe"
	case idVersionReply:
		return "version_reply"
	case idUnlock:
		return "unlock"
	case idReliableData:
		return "reliable_data"
	case idReliableAck:
		return "reliable_ack"
	case idReliableNoop:
		return "reliable_noop"
	case idSpanReport:
		return "span_report"
	case idCoordState:
		return "coord_state"
	case idStaleTerm:
		return "stale_term"
	case idBatch:
		return "batch"
	case idCounters:
		return "counters"
	case idCountersReq:
		return "counters_req"
	}
	return ""
}

// Prototypes returns one zero value of every registered payload type,
// keyed by type id. Tests use it to assert the registry covers every
// protocol message and agrees with the transport name registry.
func Prototypes() map[uint64]any {
	return map[uint64]any{
		idSubtxn:           core.SubtxnMsg{},
		idStartAdvancement: core.StartAdvancementMsg{},
		idAckAdvancement:   core.AckAdvancementMsg{},
		idReadVersion:      core.ReadVersionMsg{},
		idAckReadVersion:   core.AckReadVersionMsg{},
		idGC:               core.GCMsg{},
		idAckGC:            core.AckGCMsg{},
		idCounterReq:       core.CounterReqMsg{},
		idCounterReply:     core.CounterReplyMsg{},
		idNCVote:           core.NCVoteMsg{},
		idNCDecision:       core.NCDecisionMsg{},
		idVersionProbe:     core.VersionProbeMsg{},
		idVersionReply:     core.VersionReplyMsg{},
		idUnlock:           core.UnlockMsg{},
		idReliableData:     reliable.DataMsg{},
		idReliableAck:      reliable.AckMsg{},
		idReliableNoop:     reliable.NoopMsg{},
		idSpanReport:       core.SpanReportMsg{},
		idCoordState:       core.CoordStateMsg{},
		idStaleTerm:        core.StaleTermMsg{},
		idBatch:            transport.BatchMsg{},
		idCounters:         core.CountersMsg{},
		idCountersReq:      core.CountersReqMsg{},
	}
}

// AppendFrame appends the complete frame for m — length prefix,
// header, payload — to buf and returns the extended slice. It errors
// on payload types outside the registry and on malformed payloads (nil
// subtransaction specs, unknown op kinds).
func AppendFrame(buf []byte, m transport.Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, FormatVersion) // length backfilled below
	buf, err := appendMessage(buf, m, atTop)
	if err != nil {
		return buf[:start], err
	}
	body := len(buf) - start - 4
	if body > MaxFrame {
		return buf[:start], fmt.Errorf("wire: frame body %d exceeds MaxFrame", body)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(body))
	return buf, nil
}

// appendMessage writes one message: flags, optional trace context,
// endpoints, then the payload.
func appendMessage(buf []byte, m transport.Message, at nest) ([]byte, error) {
	if m.TC.Sampled() {
		buf = append(buf, flagTraceContext)
		buf = binary.AppendUvarint(buf, m.TC.TraceID)
		buf = binary.AppendUvarint(buf, m.TC.SpanID)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, int64(m.From))
	buf = binary.AppendVarint(buf, int64(m.To))
	return appendPayload(buf, m.Payload, at)
}

// appendPayload writes the type id and body for one payload sitting at
// position at (see nest).
func appendPayload(buf []byte, payload any, at nest) ([]byte, error) {
	switch p := payload.(type) {
	case core.SubtxnMsg:
		buf = binary.AppendUvarint(buf, idSubtxn)
		buf = binary.AppendUvarint(buf, uint64(p.Txn))
		buf = binary.AppendUvarint(buf, uint64(p.Version))
		buf = appendBool(buf, p.Root)
		buf = appendBool(buf, p.Assigned)
		if p.Spec == nil {
			buf = appendBool(buf, false)
		} else {
			buf = appendBool(buf, true)
			var err error
			buf, err = appendSpec(buf, p.Spec, 0)
			if err != nil {
				return buf, err
			}
		}
		buf = appendBool(buf, p.ReadOnly)
		buf = appendBool(buf, p.NC)
		buf = binary.AppendVarint(buf, int64(p.RootNode))
		buf = appendBool(buf, p.Compensating)
		var nanos int64
		if !p.SentAt.IsZero() {
			nanos = p.SentAt.UnixNano()
		}
		buf = binary.AppendVarint(buf, nanos)
		buf = binary.AppendVarint(buf, int64(p.Part))
		return appendBool(buf, p.Replica), nil
	case core.StartAdvancementMsg:
		buf = binary.AppendUvarint(buf, idStartAdvancement)
		buf = binary.AppendUvarint(buf, uint64(p.NewVU))
		buf = binary.AppendUvarint(buf, p.Term)
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.AckAdvancementMsg:
		buf = binary.AppendUvarint(buf, idAckAdvancement)
		buf = binary.AppendUvarint(buf, uint64(p.NewVU))
		buf = binary.AppendVarint(buf, int64(p.Node))
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.ReadVersionMsg:
		buf = binary.AppendUvarint(buf, idReadVersion)
		buf = binary.AppendUvarint(buf, uint64(p.NewVR))
		buf = binary.AppendUvarint(buf, p.Term)
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.AckReadVersionMsg:
		buf = binary.AppendUvarint(buf, idAckReadVersion)
		buf = binary.AppendUvarint(buf, uint64(p.NewVR))
		buf = binary.AppendVarint(buf, int64(p.Node))
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.GCMsg:
		buf = binary.AppendUvarint(buf, idGC)
		buf = binary.AppendUvarint(buf, uint64(p.Keep))
		buf = binary.AppendUvarint(buf, p.Term)
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.AckGCMsg:
		buf = binary.AppendUvarint(buf, idAckGC)
		buf = binary.AppendUvarint(buf, uint64(p.Keep))
		buf = binary.AppendVarint(buf, int64(p.Node))
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.CounterReqMsg:
		buf = binary.AppendUvarint(buf, idCounterReq)
		buf = binary.AppendUvarint(buf, uint64(p.Version))
		buf = binary.AppendVarint(buf, int64(p.Round))
		buf = binary.AppendUvarint(buf, p.Term)
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.CounterReplyMsg:
		buf = binary.AppendUvarint(buf, idCounterReply)
		buf = binary.AppendUvarint(buf, uint64(p.Version))
		buf = binary.AppendVarint(buf, int64(p.Round))
		buf = binary.AppendVarint(buf, int64(p.Node))
		buf = binary.AppendUvarint(buf, uint64(len(p.R)))
		for _, v := range p.R {
			buf = binary.AppendVarint(buf, v)
		}
		buf = binary.AppendUvarint(buf, uint64(len(p.C)))
		for _, v := range p.C {
			buf = binary.AppendVarint(buf, v)
		}
		buf = binary.AppendVarint(buf, int64(p.Part))
		return buf, nil
	case core.NCVoteMsg:
		buf = binary.AppendUvarint(buf, idNCVote)
		buf = binary.AppendUvarint(buf, uint64(p.Txn))
		buf = binary.AppendVarint(buf, int64(p.Node))
		buf = appendBool(buf, p.OK)
		buf = binary.AppendVarint(buf, int64(p.Children))
		return appendBool(buf, p.Root), nil
	case core.NCDecisionMsg:
		buf = binary.AppendUvarint(buf, idNCDecision)
		buf = binary.AppendUvarint(buf, uint64(p.Txn))
		return appendBool(buf, p.Commit), nil
	case core.VersionProbeMsg:
		buf = binary.AppendUvarint(buf, idVersionProbe)
		buf = binary.AppendVarint(buf, int64(p.Round))
		buf = binary.AppendUvarint(buf, p.Term)
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.VersionReplyMsg:
		buf = binary.AppendUvarint(buf, idVersionReply)
		buf = binary.AppendVarint(buf, int64(p.Round))
		buf = binary.AppendVarint(buf, int64(p.Node))
		buf = binary.AppendUvarint(buf, uint64(p.VR))
		buf = binary.AppendUvarint(buf, uint64(p.VU))
		buf = appendBool(buf, p.BelowVR)
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.UnlockMsg:
		buf = binary.AppendUvarint(buf, idUnlock)
		return binary.AppendUvarint(buf, uint64(p.Txn)), nil
	case reliable.DataMsg:
		if at == inSession {
			return buf, fmt.Errorf("wire: nested reliable.DataMsg")
		}
		buf = binary.AppendUvarint(buf, idReliableData)
		buf = binary.AppendUvarint(buf, p.Seq)
		return appendPayload(buf, p.Payload, inSession)
	case reliable.AckMsg:
		buf = binary.AppendUvarint(buf, idReliableAck)
		return binary.AppendUvarint(buf, p.CumAck), nil
	case reliable.NoopMsg:
		return binary.AppendUvarint(buf, idReliableNoop), nil
	case core.SpanReportMsg:
		buf = binary.AppendUvarint(buf, idSpanReport)
		buf = binary.AppendUvarint(buf, uint64(len(p.Spans)))
		for _, s := range p.Spans {
			buf = binary.AppendUvarint(buf, s.TraceID)
			buf = binary.AppendUvarint(buf, s.SpanID)
			buf = binary.AppendUvarint(buf, s.ParentID)
			buf = appendString(buf, s.Name)
			buf = binary.AppendVarint(buf, int64(s.Node))
			buf = binary.AppendVarint(buf, s.Start)
			buf = binary.AppendVarint(buf, s.Dur)
			buf = appendString(buf, s.Attr)
			buf = binary.AppendUvarint(buf, uint64(len(s.Stages)))
			for _, st := range s.Stages {
				buf = appendString(buf, st.Name)
				buf = binary.AppendVarint(buf, st.Dur)
			}
		}
		return buf, nil
	case core.CoordStateMsg:
		buf = binary.AppendUvarint(buf, idCoordState)
		buf = binary.AppendUvarint(buf, p.Term)
		buf = binary.AppendVarint(buf, int64(p.Coord))
		buf = binary.AppendUvarint(buf, uint64(p.VR))
		buf = binary.AppendUvarint(buf, uint64(p.VU))
		return binary.AppendVarint(buf, int64(p.Phase)), nil
	case core.StaleTermMsg:
		buf = binary.AppendUvarint(buf, idStaleTerm)
		buf = binary.AppendUvarint(buf, p.Term)
		return binary.AppendVarint(buf, int64(p.Node)), nil
	case transport.BatchMsg:
		if at != atTop {
			return buf, fmt.Errorf("wire: nested BatchMsg")
		}
		buf = binary.AppendUvarint(buf, idBatch)
		buf = binary.AppendUvarint(buf, uint64(len(p.Msgs)))
		for _, m := range p.Msgs {
			var err error
			if buf, err = appendMessage(buf, m, inBatch); err != nil {
				return buf, err
			}
		}
		return buf, nil
	case core.CountersReqMsg:
		buf = binary.AppendUvarint(buf, idCountersReq)
		buf = binary.AppendUvarint(buf, uint64(len(p.Versions)))
		for _, v := range p.Versions {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		buf = binary.AppendVarint(buf, int64(p.Round))
		buf = binary.AppendUvarint(buf, p.Term)
		return binary.AppendVarint(buf, int64(p.Part)), nil
	case core.CountersMsg:
		buf = binary.AppendUvarint(buf, idCounters)
		buf = binary.AppendVarint(buf, int64(p.Round))
		buf = binary.AppendVarint(buf, int64(p.Node))
		buf = binary.AppendUvarint(buf, uint64(len(p.Entries)))
		for _, e := range p.Entries {
			buf = binary.AppendUvarint(buf, uint64(e.Version))
			buf = binary.AppendUvarint(buf, uint64(len(e.R)))
			for _, v := range e.R {
				buf = binary.AppendVarint(buf, v)
			}
			buf = binary.AppendUvarint(buf, uint64(len(e.C)))
			for _, v := range e.C {
				buf = binary.AppendVarint(buf, v)
			}
		}
		buf = binary.AppendVarint(buf, int64(p.Part))
		return buf, nil
	}
	return buf, fmt.Errorf("%w: %T", ErrUnknownType, payload)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendSpec(buf []byte, s *model.SubtxnSpec, depth int) ([]byte, error) {
	if s == nil {
		return buf, fmt.Errorf("wire: nil subtransaction spec")
	}
	if depth > maxSpecDepth {
		return buf, fmt.Errorf("wire: subtransaction tree deeper than %d", maxSpecDepth)
	}
	buf = binary.AppendVarint(buf, int64(s.Node))
	buf = binary.AppendUvarint(buf, uint64(len(s.Reads)))
	for _, r := range s.Reads {
		buf = appendString(buf, r)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Updates)))
	for _, u := range s.Updates {
		buf = appendString(buf, u.Key)
		var err error
		buf, err = appendOp(buf, u.Op)
		if err != nil {
			return buf, err
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Children)))
	for _, c := range s.Children {
		var err error
		buf, err = appendSpec(buf, c, depth+1)
		if err != nil {
			return buf, err
		}
	}
	return appendBool(buf, s.Abort), nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendOp(buf []byte, op model.Op) ([]byte, error) {
	switch o := op.(type) {
	case model.AddOp:
		buf = append(buf, opAdd)
		buf = appendString(buf, o.Field)
		return binary.AppendVarint(buf, o.Delta), nil
	case model.AppendOp:
		buf = append(buf, opAppend)
		return appendTuple(buf, o.T), nil
	case model.RemoveOp:
		buf = append(buf, opRemove)
		return appendTuple(buf, o.T), nil
	case model.SetOp:
		buf = append(buf, opSet)
		buf = appendString(buf, o.Field)
		return binary.AppendVarint(buf, o.Value), nil
	case model.ScaleOp:
		buf = append(buf, opScale)
		buf = appendString(buf, o.Field)
		buf = binary.AppendVarint(buf, o.Num)
		return binary.AppendVarint(buf, o.Den), nil
	}
	return buf, fmt.Errorf("wire: unencodable op %T", op)
}

func appendTuple(buf []byte, t model.Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.Txn))
	buf = binary.AppendVarint(buf, int64(t.Part))
	buf = binary.AppendVarint(buf, int64(t.Total)) // negative for tombstones
	buf = appendString(buf, t.Attr)
	buf = binary.AppendVarint(buf, t.Amount)
	return binary.AppendUvarint(buf, uint64(t.TxnVersion))
}

// DecodeFrame parses one frame body (the bytes after the length
// prefix) into a transport.Message. The whole body must be consumed —
// trailing bytes are an error, so a frame is either exactly one
// well-formed message or rejected.
func DecodeFrame(body []byte) (transport.Message, error) {
	d := &decoder{b: body}
	if v := d.byte(); d.err == nil && v != FormatVersion {
		return transport.Message{}, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	m := d.message(atTop)
	if d.err != nil {
		return transport.Message{}, d.err
	}
	if d.off != len(d.b) {
		return transport.Message{}, fmt.Errorf("%w: %d byte(s)", ErrTrailing, len(d.b)-d.off)
	}
	return m, nil
}

// decoder is a cursor over one frame body. The first error sticks; all
// reads after it return zero values, so decode methods can run
// straight-line and check d.err once.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("wire: invalid bool byte at offset %d", d.off-1))
		return false
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(ErrTruncated)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count reads a collection length and sanity-checks it against the
// bytes remaining (every element costs ≥ 1 byte), so corrupt frames
// cannot provoke huge slice allocations.
func (d *decoder) count() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(fmt.Errorf("wire: collection length %d exceeds remaining %d bytes", n, len(d.b)-d.off))
		return 0
	}
	return int(n)
}

// message reads one message: flags, optional trace context, endpoints,
// then the payload.
func (d *decoder) message(at nest) transport.Message {
	var m transport.Message
	flags := d.byte()
	if d.err == nil && flags&^flagTraceContext != 0 {
		d.fail(fmt.Errorf("%w: unknown header flags %#x", ErrVersion, flags))
		return m
	}
	if flags&flagTraceContext != 0 {
		m.TC.TraceID = d.uvarint()
		m.TC.SpanID = d.uvarint()
		if d.err == nil && !m.TC.Sampled() {
			// The encoder sets the flag only for a sampled context.
			d.fail(fmt.Errorf("wire: trace context flag with zero trace id"))
		}
	}
	m.From = model.NodeID(d.varint())
	m.To = model.NodeID(d.varint())
	m.Payload = d.payload(at)
	return m
}

func (d *decoder) payload(at nest) any {
	id := d.uvarint()
	if d.err != nil {
		return nil
	}
	switch id {
	case idSubtxn:
		m := core.SubtxnMsg{
			Txn:      model.TxnID(d.uvarint()),
			Version:  model.Version(d.uvarint()),
			Root:     d.bool(),
			Assigned: d.bool(),
		}
		if d.bool() {
			m.Spec = d.spec(0)
		}
		m.ReadOnly = d.bool()
		m.NC = d.bool()
		m.RootNode = model.NodeID(d.varint())
		m.Compensating = d.bool()
		if nanos := d.varint(); nanos != 0 {
			m.SentAt = time.Unix(0, nanos)
		}
		m.Part = int(d.varint())
		m.Replica = d.bool()
		return m
	case idStartAdvancement:
		return core.StartAdvancementMsg{NewVU: model.Version(d.uvarint()), Term: d.uvarint(), Part: int(d.varint())}
	case idAckAdvancement:
		return core.AckAdvancementMsg{NewVU: model.Version(d.uvarint()), Node: model.NodeID(d.varint()), Part: int(d.varint())}
	case idReadVersion:
		return core.ReadVersionMsg{NewVR: model.Version(d.uvarint()), Term: d.uvarint(), Part: int(d.varint())}
	case idAckReadVersion:
		return core.AckReadVersionMsg{NewVR: model.Version(d.uvarint()), Node: model.NodeID(d.varint()), Part: int(d.varint())}
	case idGC:
		return core.GCMsg{Keep: model.Version(d.uvarint()), Term: d.uvarint(), Part: int(d.varint())}
	case idAckGC:
		return core.AckGCMsg{Keep: model.Version(d.uvarint()), Node: model.NodeID(d.varint()), Part: int(d.varint())}
	case idCounterReq:
		return core.CounterReqMsg{Version: model.Version(d.uvarint()), Round: int(d.varint()), Term: d.uvarint(), Part: int(d.varint())}
	case idCounterReply:
		m := core.CounterReplyMsg{
			Version: model.Version(d.uvarint()),
			Round:   int(d.varint()),
			Node:    model.NodeID(d.varint()),
		}
		if n := d.count(); n > 0 {
			m.R = make([]int64, n)
			for i := range m.R {
				m.R[i] = d.varint()
			}
		}
		if n := d.count(); n > 0 {
			m.C = make([]int64, n)
			for i := range m.C {
				m.C[i] = d.varint()
			}
		}
		m.Part = int(d.varint())
		return m
	case idNCVote:
		return core.NCVoteMsg{
			Txn:      model.TxnID(d.uvarint()),
			Node:     model.NodeID(d.varint()),
			OK:       d.bool(),
			Children: int(d.varint()),
			Root:     d.bool(),
		}
	case idNCDecision:
		return core.NCDecisionMsg{Txn: model.TxnID(d.uvarint()), Commit: d.bool()}
	case idVersionProbe:
		return core.VersionProbeMsg{Round: int(d.varint()), Term: d.uvarint(), Part: int(d.varint())}
	case idVersionReply:
		return core.VersionReplyMsg{
			Round:   int(d.varint()),
			Node:    model.NodeID(d.varint()),
			VR:      model.Version(d.uvarint()),
			VU:      model.Version(d.uvarint()),
			BelowVR: d.bool(),
			Part:    int(d.varint()),
		}
	case idUnlock:
		return core.UnlockMsg{Txn: model.TxnID(d.uvarint())}
	case idReliableData:
		if at == inSession {
			d.fail(fmt.Errorf("wire: nested reliable.DataMsg"))
			return nil
		}
		seq := d.uvarint()
		inner := d.payload(inSession)
		return reliable.DataMsg{Seq: seq, Payload: inner}
	case idReliableAck:
		return reliable.AckMsg{CumAck: d.uvarint()}
	case idReliableNoop:
		return reliable.NoopMsg{}
	case idSpanReport:
		m := core.SpanReportMsg{}
		if n := d.count(); n > 0 {
			m.Spans = make([]obs.Span, n)
			for i := range m.Spans {
				s := &m.Spans[i]
				s.TraceID = d.uvarint()
				s.SpanID = d.uvarint()
				s.ParentID = d.uvarint()
				s.Name = d.string()
				s.Node = int(d.varint())
				s.Start = d.varint()
				s.Dur = d.varint()
				s.Attr = d.string()
				if k := d.count(); k > 0 {
					s.Stages = make([]obs.SpanStage, k)
					for j := range s.Stages {
						s.Stages[j].Name = d.string()
						s.Stages[j].Dur = d.varint()
					}
				}
			}
		}
		return m
	case idCoordState:
		return core.CoordStateMsg{
			Term:  d.uvarint(),
			Coord: model.NodeID(d.varint()),
			VR:    model.Version(d.uvarint()),
			VU:    model.Version(d.uvarint()),
			Phase: int(d.varint()),
		}
	case idStaleTerm:
		return core.StaleTermMsg{Term: d.uvarint(), Node: model.NodeID(d.varint())}
	case idBatch:
		if at != atTop {
			d.fail(fmt.Errorf("wire: nested batch payload"))
			return nil
		}
		b := transport.BatchMsg{}
		if n := d.count(); n > 0 {
			b.Msgs = make([]transport.Message, n)
			for i := range b.Msgs {
				b.Msgs[i] = d.message(inBatch)
			}
		}
		return b
	case idCountersReq:
		m := core.CountersReqMsg{}
		if n := d.count(); n > 0 {
			m.Versions = make([]model.Version, n)
			for i := range m.Versions {
				m.Versions[i] = model.Version(d.uvarint())
			}
		}
		m.Round = int(d.varint())
		m.Term = d.uvarint()
		m.Part = int(d.varint())
		return m
	case idCounters:
		m := core.CountersMsg{
			Round: int(d.varint()),
			Node:  model.NodeID(d.varint()),
		}
		if n := d.count(); n > 0 {
			m.Entries = make([]core.VersionCounters, n)
			for i := range m.Entries {
				e := &m.Entries[i]
				e.Version = model.Version(d.uvarint())
				if k := d.count(); k > 0 {
					e.R = make([]int64, k)
					for j := range e.R {
						e.R[j] = d.varint()
					}
				}
				if k := d.count(); k > 0 {
					e.C = make([]int64, k)
					for j := range e.C {
						e.C[j] = d.varint()
					}
				}
			}
		}
		m.Part = int(d.varint())
		return m
	}
	d.fail(fmt.Errorf("%w: id %d", ErrUnknownType, id))
	return nil
}

func (d *decoder) spec(depth int) *model.SubtxnSpec {
	if depth > maxSpecDepth {
		d.fail(fmt.Errorf("wire: subtransaction tree deeper than %d", maxSpecDepth))
		return nil
	}
	s := &model.SubtxnSpec{Node: model.NodeID(d.varint())}
	if n := d.count(); n > 0 {
		s.Reads = make([]string, n)
		for i := range s.Reads {
			s.Reads[i] = d.string()
		}
	}
	if n := d.count(); n > 0 {
		s.Updates = make([]model.KeyOp, n)
		for i := range s.Updates {
			s.Updates[i].Key = d.string()
			s.Updates[i].Op = d.op()
		}
	}
	if n := d.count(); n > 0 {
		s.Children = make([]*model.SubtxnSpec, n)
		for i := range s.Children {
			s.Children[i] = d.spec(depth + 1)
			if d.err != nil {
				return nil
			}
		}
	}
	s.Abort = d.bool()
	if d.err != nil {
		return nil
	}
	return s
}

func (d *decoder) op() model.Op {
	switch d.byte() {
	case opAdd:
		return model.AddOp{Field: d.string(), Delta: d.varint()}
	case opAppend:
		return model.AppendOp{T: d.tuple()}
	case opRemove:
		return model.RemoveOp{T: d.tuple()}
	case opSet:
		return model.SetOp{Field: d.string(), Value: d.varint()}
	case opScale:
		return model.ScaleOp{Field: d.string(), Num: d.varint(), Den: d.varint()}
	default:
		if d.err == nil {
			d.fail(fmt.Errorf("wire: unknown op kind at offset %d", d.off-1))
		}
		return nil
	}
}

func (d *decoder) tuple() model.Tuple {
	return model.Tuple{
		Txn:        model.TxnID(d.uvarint()),
		Part:       int(d.varint()),
		Total:      int(d.varint()),
		Attr:       d.string(),
		Amount:     d.varint(),
		TxnVersion: model.Version(d.uvarint()),
	}
}

// The helpers below expose pieces of the frame codec to the durability
// layer (internal/durable), whose log records and checkpoint blobs
// reuse the wire encodings for ops, records and whole messages rather
// than invent parallel ones.

// AppendOp appends the wire encoding of one store op — the same
// encoding SubtxnSpec updates use inside frames.
func AppendOp(buf []byte, op model.Op) ([]byte, error) { return appendOp(buf, op) }

// DecodeOp decodes one op from the front of b, returning the op and
// the number of bytes consumed.
func DecodeOp(b []byte) (model.Op, int, error) {
	d := &decoder{b: b}
	op := d.op()
	if d.err != nil {
		return nil, 0, d.err
	}
	return op, d.off, nil
}

// AppendRecord appends the encoding of one versioned record: summary
// fields (sorted by name, so encoding is deterministic) then the tuple
// log in order.
func AppendRecord(buf []byte, r *model.Record) []byte {
	names := make([]string, 0, len(r.Fields))
	for k := range r.Fields {
		names = append(names, k)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, k := range names {
		buf = appendString(buf, k)
		buf = binary.AppendVarint(buf, r.Fields[k])
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Log)))
	for _, t := range r.Log {
		buf = appendTuple(buf, t)
	}
	return buf
}

// DecodeRecord decodes one record from the front of b, returning the
// record and the number of bytes consumed.
func DecodeRecord(b []byte) (*model.Record, int, error) {
	d := &decoder{b: b}
	rec := model.NewRecord()
	for i, n := 0, d.count(); i < n; i++ {
		k := d.string()
		rec.Fields[k] = d.varint()
	}
	for i, n := 0, d.count(); i < n; i++ {
		rec.Log = append(rec.Log, d.tuple())
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	return rec, d.off, nil
}
