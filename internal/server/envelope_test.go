package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/progcache"
)

// TestRequestErrorBodies pins the exact reply to request bodies that are
// malformed, mistyped or over the body cap: status and body byte for
// byte. The expected bodies were recorded from the server as it was when
// encoding/json decoded every request, so they also pin that the envelope
// scanner changed no wording.
func TestRequestErrorBodies(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	trailing := strings.Repeat(" ", 2000)
	cases := []struct {
		name, path, body string
		code             int
		want             string
	}{
		{"non-JSON body", "/v1/run", "not json", 400,
			"{\n  \"error\": \"decode request: invalid character 'o' in literal null (expecting 'u')\"\n}\n"},
		{"empty body", "/v1/run", "", 400,
			"{\n  \"error\": \"decode request: EOF\"\n}\n"},
		{"truncated object", "/v1/run", `{"project":"(p`, 400,
			"{\n  \"error\": \"decode request: unexpected EOF\"\n}\n"},
		{"project is a number", "/v1/run", `{"project": 5}`, 400,
			"{\n  \"error\": \"decode request: json: cannot unmarshal number into Go struct field RunRequest.project of type string\"\n}\n"},
		{"fractional timeout", "/v1/run", `{"project":"(p)","timeout_ms": 1.5}`, 400,
			"{\n  \"error\": \"decode request: json: cannot unmarshal number 1.5 into Go struct field RunRequest.timeout_ms of type int64\"\n}\n"},
		{"codegen lang is a number", "/v1/codegen", `{"script":"(say 1)","lang":5}`, 400,
			"{\n  \"error\": \"decode request: json: cannot unmarshal number into Go struct field CodegenRequest.lang of type string\"\n}\n"},
		{"over the cap, object incomplete", "/v1/run", `{"project":"; ` + strings.Repeat("x", 4096) + `"}`, 413,
			"{\n  \"error\": \"request body exceeds 1024 bytes\"\n}\n"},
		{"object completes before the cap, trailing bytes cross it", "/v1/run", `{"project":"!!!"}` + trailing, 400,
			"{\n  \"error\": \"parse project: unrecognized project format: want textual s-expressions or Snap! XML\"\n}\n"},
		{"trailing garbage crosses the cap", "/v1/run", `{"project":"!!!"}` + strings.Repeat("x", 2000), 400,
			"{\n  \"error\": \"parse project: unrecognized project format: want textual s-expressions or Snap! XML\"\n}\n"},
		{"codegen completes before the cap, trailing bytes cross it", "/v1/codegen", `{"script":"(say 1)","lang":"c"}` + trailing, 200,
			"{\n  \"lang\": \"c\",\n  \"source\": \"#include \\u003cstdio.h\\u003e\\n#include \\u003cstdlib.h\\u003e\\n\\nint main()\\n{\\n    printf(\\\"%g\\\\n\\\", (double)(1));\\n    return (0);\\n}\\n\"\n}\n"},
		{"syntax error before the cap", "/v1/run", `{"project":"(p)",}` + trailing, 400,
			"{\n  \"error\": \"decode request: invalid character '}' looking for beginning of object key string\"\n}\n"},
		{"null body", "/v1/run", `null`, 400,
			"{\n  \"error\": \"parse project: empty project\"\n}\n"},
		{"byte order mark", "/v1/run", "\ufeff{\"project\":\"!!!\"}", 400,
			"{\n  \"error\": \"decode request: invalid character 'ï' looking for beginning of value\"\n}\n"},
		{"capitalised key", "/v1/run", `{"Project":"!!!"}`, 400,
			"{\n  \"error\": \"parse project: unrecognized project format: want textual s-expressions or Snap! XML\"\n}\n"},
		{"escaped key", "/v1/run", `{"proj\u0065ct":"!!!"}`, 400,
			"{\n  \"error\": \"parse project: unrecognized project format: want textual s-expressions or Snap! XML\"\n}\n"},
		{"null field", "/v1/codegen", `{"script":null,"project":"!!!","lang":"c"}`, 400,
			"{\n  \"error\": \"parse project: unrecognized project format: want textual s-expressions or Snap! XML\"\n}\n"},
		{"int64 overflow", "/v1/run", `{"project":"(p)","max_steps":9223372036854775808}`, 400,
			"{\n  \"error\": \"decode request: json: cannot unmarshal number 9223372036854775808 into Go struct field RunRequest.max_steps of type int64\"\n}\n"},
		{"exponent", "/v1/run", `{"project":"(p)","max_rounds":1e3}`, 400,
			"{\n  \"error\": \"decode request: json: cannot unmarshal number 1e3 into Go struct field RunRequest.max_rounds of type int\"\n}\n"},
		{"control character in project", "/v1/run", "{\"project\":\"a\tb\"}", 400,
			"{\n  \"error\": \"decode request: invalid character '\\\\t' in string literal\"\n}\n"},
		{"bad escape in project", "/v1/run", `{"project":"a\qb"}`, 400,
			"{\n  \"error\": \"decode request: invalid character 'q' in string escape code\"\n}\n"},
		{"unknown format, upper case", "/v1/run", `{"project":"(p)","format":"YAML"}`, 400,
			"{\n  \"error\": \"parse project: unknown format \\\"YAML\\\" (want auto, sblk, or xml)\"\n}\n"},
		{"unknown format, lower case", "/v1/run", `{"project":"(p)","format":"yaml"}`, 400,
			"{\n  \"error\": \"parse project: unknown format \\\"yaml\\\" (want auto, sblk, or xml)\"\n}\n"},
		{"both script and project", "/v1/codegen", `{"script":"(say 1)","project":"(p)","lang":"c"}`, 400,
			"{\n  \"error\": \"give either script or project, not both\"\n}\n"},
		{"codegen over the cap", "/v1/codegen", `{"script":"` + strings.Repeat("x", 4096) + `"}`, 413,
			"{\n  \"error\": \"request body exceeds 1024 bytes\"\n}\n"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code || string(got) != tc.want {
			t.Errorf("%s: got %d %q\nwant %d %q", tc.name, resp.StatusCode, got, tc.code, tc.want)
		}
	}
}

// envelopeSeeds covers the shapes the scanner accepts and every family it
// refuses, so the fuzzer starts on both sides of the line.
var envelopeSeeds = []string{
	`{"project":"(project \"p\")","format":"sblk","timeout_ms":100,"max_steps":5,"max_rounds":7,"max_trace_lines":9}`,
	`{"script":"(say 1)","lang":"openmp"}`,
	`{}`, " \t\r\n{ } ", `{"project":""}`,
	// Case variants and escaped keys.
	`{"Project":"(p)"}`, `{"PROJECT":"(p)","Format":"xml"}`, `{"project":"(p)"}`, `{"format\u0000":"x"}`,
	// Duplicate keys.
	`{"project":"a","project":"b"}`, `{"format":"xml","format":"sblk","project":"x"}`,
	`{"timeout_ms":5,"timeout_ms":7}`, `{"project":"a","Project":"b"}`, `{"project":5,"project":"b"}`,
	// Nested values and unknown fields.
	`{"project":{"a":1}}`, `{"extra":[1,{"b":null}],"project":"x"}`, `{"lang":["c"]}`, `{"meta":true,"script":"x"}`,
	// Escapes: surrogate pairs, lone surrogates, every short escape, bad ones.
	`{"project":"😀 é \ud800 \udc00x 􏿿"}`, `{"project":"\/\b\f\n\r\t\"\\"}`,
	`{"project":"\u12"}`, `{"project":"\x41"}`, `{"format":"xml","project":"<project/>"}`,
	// Invalid UTF-8 and raw control characters.
	"{\"project\":\"\xff\xfe\xc3\"}", "{\"project\":\"x\",\"format\":\"\xff\"}", "{\"lang\":\"\xc3\xa9\"}",
	"{\"project\":\"a\x01b\"}", "{\"project\":\"a\nb\"}", "{\"project\":\"a\x7fb\"}",
	// Numbers.
	`{"timeout_ms":1e3}`, `{"max_steps":1.0}`, `{"max_rounds":-0}`, `{"timeout_ms":01}`, `{"timeout_ms":-}`,
	`{"max_steps":9223372036854775807}`, `{"max_steps":9223372036854775808}`,
	`{"max_steps":-9223372036854775808}`, `{"max_trace_lines":-9223372036854775809}`,
	`{"max_rounds":99999999999999999999999}`, `{"timeout_ms":"5"}`, `{"timeout_ms":5 }`, `{"timeout_ms":-12,"project":"x"}`,
	// null, for the body and for a field.
	`null`, `{"project":null}`, `{"script":null,"project":"x"}`,
	// A BOM, an empty body, malformed objects, trailing bytes after }.
	"\xef\xbb\xbf{\"project\":\"x\"}", "", " ", `{`, `{"project":"x"`, `{"project":"x",}`, `{"project" "x"}`,
	`{,}`, `[]`, `"project"`, `{"project":"x"}garbage`, `{"project":"x"} {"project":"y"}`, `{"project":"x"}}`,
}

// FuzzRequestEnvelope: whatever the bytes, reading a body through the
// envelope scanner answers exactly as encoding/json's Decoder does on its
// own: the same status and error text, or the same fields once the
// scanner's raw tokens are unquoted. The second argument sets the body
// cap (0 for the default), so bodies that cross it are compared too.
func FuzzRequestEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add([]byte(s), uint16(0))
	}
	f.Add([]byte(`{"project":"(p)"}`+strings.Repeat(" ", 64)), uint16(20))
	f.Add([]byte(`{"project":"`+strings.Repeat("x", 64)+`"}`), uint16(20))
	f.Add([]byte(`{"project":"(p)"}`), uint16(17))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		lim := int64(limit)
		if lim == 0 {
			lim = 1 << 20
		}
		size := int64(len(data))
		if limit%2 == 1 {
			size = -1 // no declared length
		}
		checkEnvelope(t, data, size, lim, func(q *request) RunRequest {
			return RunRequest{Project: q.Project.String(), Format: q.Format, TimeoutMS: q.TimeoutMS,
				MaxSteps: q.MaxSteps, MaxRounds: int(q.MaxRounds), MaxTraceLines: int(q.MaxTraceLines)}
		})
		checkEnvelope(t, data, size, lim, func(q *request) CodegenRequest {
			return CodegenRequest{Script: q.Script.String(), Project: q.Project.String(), Format: q.Format, Lang: q.Lang}
		})
	})
}

// checkEnvelope decodes data as a T both ways and compares the outcomes;
// fields projects a decoded request onto T.
func checkEnvelope[T comparable](t *testing.T, data []byte, size, limit int64, fields func(*request) T) {
	t.Helper()
	capped := func() io.Reader { return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), limit) }
	var want, fallback T
	wantErr := json.NewDecoder(capped()).Decode(&want)
	q, err := decodeRequest(capped(), size, limit, &fallback)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil {
			t.Fatalf("%q: error %v, encoding/json says %v", data, err, wantErr)
		}
		gotCode, gotMsg := decodeError(err)
		wantCode, wantMsg := decodeError(wantErr)
		if gotCode != wantCode || gotMsg != wantMsg {
			t.Fatalf("%q: %d %q, encoding/json says %d %q", data, gotCode, gotMsg, wantCode, wantMsg)
		}
		return
	}
	if got := fields(&q); got != want {
		t.Fatalf("%q: decoded %+v, encoding/json says %+v", data, got, want)
	}
	q.free()
}

// TestPlacementKeyIsTierAKey: the shard router places a body by
// progcache.RequestKey (its placementKey), and the server must cache the
// body's project under that same key, or identical programs would land on
// a shard whose cache does not hold them. Script-only and undecodable
// bodies never reach the cache.
func TestPlacementKeyIsTierAKey(t *testing.T) {
	const src = `(project \"p\" (sprite \"S\" (when green-flag (do (say 1)))))`
	cases := []struct {
		name, path, body string
		cached           bool
	}{
		{"run", "/v1/run", `{"project":"` + src + `","timeout_ms":1000}`, true},
		{"codegen project", "/v1/codegen", `{"project":"` + src + `","lang":"c"}`, true},
		{"codegen script only", "/v1/codegen", `{"script":"(say 1)","lang":"c"}`, false},
		{"format as sent", "/v1/run", `{"project":"` + src + `","format":"sblk"}`, true},
		{"format upper case", "/v1/run", `{"project":"` + src + `","format":"SBLK"}`, true},
		{"unknown format", "/v1/run", `{"project":"` + src + `","format":"Yaml"}`, true},
		{"capitalised key takes encoding/json", "/v1/run", `{"Project":"` + src + `"}`, true},
		{"nested unknown field takes encoding/json", "/v1/run", `{"project":"` + src + `","meta":{"seat":[1,2]}}`, true},
		{"undecodable", "/v1/run", `not json`, false},
		{"undecodable codegen", "/v1/codegen", `{"script":`, false},
	}
	for _, tc := range cases {
		srv := New(Config{})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		if !tc.cached {
			if n := srv.cache.Stats().Entries; n != 0 {
				t.Errorf("%s: %d Tier A entries, want none (status %d)", tc.name, n, rec.Code)
			}
			continue
		}
		_, out := srv.cache.Lookup(progcache.RequestKey([]byte(tc.body)), func() *progcache.ProjectEntry {
			return &progcache.ProjectEntry{ParseErr: "not cached"}
		})
		if out != progcache.OutcomeHit {
			t.Errorf("%s: Tier A holds the project under another key than the router places it by (status %d)", tc.name, rec.Code)
		}
	}

	// Format case variants of a known format share one entry on both
	// sides; an unknown format keeps its case, since its error quotes it.
	variant := func(format string) []byte {
		return []byte(`{"project":"` + src + `","format":"` + format + `"}`)
	}
	if progcache.RequestKey(variant("XML")) != progcache.RequestKey(variant("xml")) {
		t.Error(`"XML" and "xml" parse alike but key apart`)
	}
	if progcache.RequestKey(variant("YAML")) == progcache.RequestKey(variant("yaml")) {
		t.Error(`"YAML" and "yaml" answer different errors but share a key`)
	}
}
