package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pvmigrate/internal/errs"
)

// marshalLine is the reference encoding every JSON line must equal.
func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	return append(b, '\n')
}

// TestJSONLinesMatchMarshal: the pooled encoder writes every response body
// and journal line byte for byte as json.Marshal(v) plus a newline, HTML
// escaping included, and an unencodable view still becomes the 500
// envelope.
func TestJSONLinesMatchMarshal(t *testing.T) {
	c := goldenSession(t)
	defer c.Close()
	job := c.jobView(c.jobs[0])
	views := map[string]any{
		"jobs":        c.JobViews(),
		"job":         &job,
		"hosts":       c.Hosts(),
		"tasks":       c.Tasks(),
		"migrations":  migrationViews(c),
		"plans":       planViews(c),
		"plan":        planView(c.plans[0]),
		"metrics":     c.Metrics(),
		"ok-metrics":  okMetrics(c),
		"rollback":    map[string]any{"ok": true, "epoch": c.w.Mgr.Epoch()},
		"trace":       map[string]any{"events": traceViews(c.Trace(0)), "next": c.TraceLen()},
		"journal":     map[string]any{"config": c.Config(), "commands": c.History()},
		"fingerprint": map[string]any{"fingerprint": c.FingerprintHex(), "virtual_ms": ms(c.Now()), "commands": c.applied},
		"envelope":    errs.ToEnvelope(errs.Newf(CodeNotFound, "no job <&> %q", "x")),
	}
	for name, v := range views {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, Content-Type %q", name, rec.Code, rec.Header().Get("Content-Type"))
		}
		if want := marshalLine(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: body differs from json.Marshal:\n got %q\nwant %q", name, rec.Body.Bytes(), want)
		}
	}

	_, nanErr := json.Marshal(math.NaN())
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"loss": math.NaN()})
	want := marshalLine(t, errs.ToEnvelope(errs.New(CodeInternal, "response failed to encode", nanErr)))
	if rec.Code != http.StatusInternalServerError || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("NaN view: status %d body %q, want 500 %q", rec.Code, rec.Body.Bytes(), want)
	}

	var buf bytes.Buffer
	jw, err := NewJournalWriter(&buf, c.Config())
	if err != nil {
		t.Fatal(err)
	}
	want = marshalLine(t, journalHeader{Version: journalVersion, Config: c.Config()})
	cmds := append(c.History(), Command{Seq: c.applied + 1, At: c.Now(), Kind: CmdPlan,
		Plan: &PlanArgs{Name: "<evac & drain>"}})
	for _, cmd := range cmds {
		if err := jw.Append(cmd); err != nil {
			t.Fatal(err)
		}
		want = append(want, marshalLine(t, cmd)...)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("journal differs from json.Marshal lines:\n got %q\nwant %q", buf.Bytes(), want)
	}
}
