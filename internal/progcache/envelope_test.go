package progcache

import (
	"encoding/json"
	"strings"
	"testing"
)

var keySink string

// bigBody is a 16 KB run body, the size of the cached 41-sprite request.
func bigBody(t testing.TB) (src string, body []byte) {
	src = strings.Repeat("(say \"<hi>\")\n", (16<<10)/14)
	body, err := json.Marshal(map[string]any{"project": src, "format": "sblk", "timeout_ms": 500})
	if err != nil {
		t.Fatal(err)
	}
	return src, body
}

// TestKeyDoesNotCopyTheSource pins that computing a Tier A key allocates
// the key and nothing that grows with the source: neither the raw token
// of a scanned body nor a decoded source (Projects.Get) is copied.
func TestKeyDoesNotCopyTheSource(t *testing.T) {
	src, body := bigBody(t)
	env, ok := ScanEnvelope(body)
	if !ok {
		t.Fatal("the scanner refused a body of the shape clients send")
	}
	for name, key := range map[string]func(){
		"scanned token": func() { keySink = env.Key(body) },
		"whole body":    func() { keySink = (&Envelope{}).Key(body) },
		"decoded text":  func() { keySink = hashBody(src, "sblk") },
	} {
		// A GC emptying the hasher pool mid-run may add one allocation
		// over the whole run; a copy of the source adds one per call.
		if n := testing.AllocsPerRun(100, key); n >= 2 {
			t.Errorf("%s: %.2f allocations per key, want 1 (the key)", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { env, _ = ScanEnvelope(body) }); n >= 2 {
		t.Errorf("scanning allocates %.2f times, want at most the format string", n)
	}
}

func TestScanEnvelopeKeepsTokensRaw(t *testing.T) {
	body := []byte(` {"project":"a\nb <\"","script":"","format":"XML","lang":"c",` +
		`"timeout_ms":-5,"max_steps":9223372036854775807,"max_rounds":0,"max_trace_lines":12} trailing`)
	env, ok := ScanEnvelope(body)
	if !ok {
		t.Fatal("refused")
	}
	if got := string(env.Project.tok); got != `"a\nb <\""` {
		t.Errorf("project token = %s, want it still escaped", got)
	}
	if got := env.Project.String(); got != "a\nb <\"" {
		t.Errorf("project = %q", got)
	}
	if !env.Script.Empty() || env.Project.Empty() {
		t.Error("Empty is wrong")
	}
	if env.Format != "XML" || env.Lang != "c" || env.TimeoutMS != -5 || env.MaxSteps != 1<<63-1 ||
		env.MaxRounds != 0 || env.MaxTraceLines != 12 {
		t.Errorf("fields = %+v", env)
	}
}

func TestKeyDomains(t *testing.T) {
	key := func(body string) string { return RequestKey([]byte(body)) }
	if key(`{"project":"(p)","timeout_ms":1}`) != key(`{"lang":"c","project":"(p)"}`) {
		t.Error("run and codegen bodies of one project must share a key")
	}
	if key(`{"project":"(p)","format":"Xml"}`) != key(`{"project":"(p)","format":"xml"}`) {
		t.Error("a known format must key case-blind")
	}
	if key(`{"project":"(p)","format":"sblK"}`) == key(`{"project":"(p)","format":"sblk"}`) {
		t.Error("only ASCII case folds")
	}
	if key(`{"project":"(p)"}`) == key(`{"script":"(p)"}`) {
		t.Error("a script must not share a key with a project of the same bytes")
	}
	if key(`{"project":"a\nb"}`) == hashBody(`a\nb`, "") {
		t.Error("a raw token must not share a key with a decoded source of the same bytes")
	}
	if key(`{"Project":"(p)"}`) == key(`{"project":"(p)"}`) {
		t.Error("a refused body keys on its own bytes")
	}
	if key(`{"project":""}`) != key(`{}`) {
		t.Error("an empty and an absent project are the same program")
	}
}
