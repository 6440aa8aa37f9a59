package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/runtime"
)

// strsOf picks one of four shapes for a string slice: nil, empty, one
// string, or three.
func strsOf(shape uint8, a, b, c string) []string {
	switch shape & 3 {
	case 0:
		return nil
	case 1:
		return []string{}
	case 2:
		return []string{a}
	}
	return []string{a, b, c}
}

// FuzzReplyMatchesMarshalIndent holds every reply the server encodes by
// hand to what writeJSON writes for it: json.MarshalIndent(v, "", "  ")
// plus a newline, byte for byte. shape picks nil, empty or filled string
// slices and zero or set omitempty fields; the strings land in every
// string field, so escaping is compared everywhere.
func FuzzReplyMatchesMarshalIndent(f *testing.F) {
	for _, s := range []string{
		"", "plain", `a "quoted" \ back`, "<script>&amp;</script>", "line\u2028para\u2029end",
		"\xff\xfe invalid \xc3", "\x00\x01\x1f \b\f\n\r\t \x7f", "ünïcödé €", "\U0001F600",
		"[t=0] S says \"hi\"", "S#12@(-1.5,1e+21) saying \"x\"",
	} {
		f.Add(s, "b<", ">c&", int64(7), uint8(0xff))
		f.Add(s, "", s, int64(0), uint8(0))
		f.Add("id", s, "", int64(-1), uint8(0b01_01_01_01))
		f.Add(s, s, s, int64(1)<<62, uint8(0b10_10_10_10))
	}
	f.Fuzz(func(t *testing.T, a, b, c string, n int64, shape uint8) {
		errText := ""
		if shape&0x40 != 0 {
			errText = c
		}
		dropped := 0
		if shape&0x80 != 0 {
			dropped = int(n)
		}
		for _, r := range []reply{
			&RunResponse{ID: a, Warnings: strsOf(shape, b, c, a), Result: runtime.Result{
				Status: runtime.Status(b), Error: errText,
				Trace: strsOf(shape>>2, c, a, b), TraceDropped: dropped, Stage: strsOf(shape>>4, a, b, c),
				Scripts: int(n), Rounds: -n, Steps: n >> 3, Timesteps: n ^ 1, QueueMS: n / 7, RunMS: n % 1000,
			}},
			&CodegenResponse{Lang: a, Source: b, Warnings: strsOf(shape>>1, c, b, a)},
			&errorBody{Error: a, Findings: strsOf(shape>>3, b, c, a)},
		} {
			checkReply(t, r)
		}
	})
}

func checkReply(t *testing.T, r reply) {
	t.Helper()
	want, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if got := append(r.AppendJSON(nil), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("%T encodes as\n%s\nwant\n%s", r, got, want)
	}
}
