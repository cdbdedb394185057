package wire

import (
	"reflect"
	"testing"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the frame decoder and, for
// every input it accepts, checks the codec's fixed point: re-encoding
// the decoded message and decoding again must yield an identical
// message (non-canonical varint spellings collapse to canonical on the
// first re-encode, so decoded-vs-redecoded is the right comparison, not
// input-vs-re-encoded bytes). The corpus is seeded with one frame per
// registered payload type — including NC3V 2PC votes/decisions, the
// coordinator-recovery probe/reply, traced headers, and batches with
// traced and session-enveloped members (whose nesting the decoder must
// reject: a batch is only valid as the frame's own payload, never as a
// member or inside a session envelope) — so mutation starts from every
// branch of the decoder.
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			f.Fatalf("seed encode %T: %v", m.Payload, err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m1, err := DecodeFrame(body)
		if err != nil {
			return // rejected input: fine, as long as we didn't panic
		}
		frame, err := AppendFrame(nil, m1)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v\nmessage: %+v", err, m1)
		}
		m2, err := DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v\nmessage: %+v", err, m1)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("round trip not a fixed point:\n first  %+v\n second %+v", m1, m2)
		}
	})
}
