package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPostRoutesAnswerAlike drives every POST endpoint through the same
// client-error and cache contract: a malformed body and a malformed
// X-Deadline are both 400 on every route, and an asynchronous route's
// repeat after completion is a 200 cache hit whose bytes are the job's
// result document.
func TestPostRoutesAnswerAlike(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	post := func(path, body, deadline string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", path, strings.NewReader(body))
		if deadline != "" {
			r.Header.Set("X-Deadline", deadline)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w
	}
	routes := []struct {
		path, body string
		async      bool
	}{
		{"/v1/generate", `{"list":"list2"}`, true},
		{"/v1/verify", `{"march":{"name":"March SL"},"list":"list2"}`, true},
		{"/v1/optimize", `{"list":"list2","march":{"name":"March ABL1"},"budget":50}`, true},
		{"/v1/diagnose", `{"list":"simple1","observations":[{"march":{"name":"MATS+"},"syndrome":[]}]}`, true},
		{"/v1/simulate", `{"march":{"name":"March SL"},"list":"list2"}`, false},
		{"/v1/detects", `{"march":{"name":"March SL"},"fault":{"kind":"LF1","fps":["<0w1/0/->","<0r0/1/0>"]}}`, false},
	}
	for _, rt := range routes {
		t.Run(strings.TrimPrefix(rt.path, "/v1/"), func(t *testing.T) {
			for _, body := range []string{`{"bogus":1}`, `{"list":`, rt.body + `{}`} {
				if w := post(rt.path, body, ""); w.Code != http.StatusBadRequest {
					t.Errorf("body %s: status %d, want 400: %s", body, w.Code, w.Body.String())
				}
			}
			for _, deadline := range []string{"bogus", "-5s", "0"} {
				w := post(rt.path, rt.body, deadline)
				if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "X-Deadline") {
					t.Errorf("X-Deadline %q: status %d, want 400: %s", deadline, w.Code, w.Body.String())
				}
			}
			w := post(rt.path, rt.body, "30s")
			if !rt.async {
				if w.Code != http.StatusOK {
					t.Fatalf("status %d, want 200: %s", w.Code, w.Body.String())
				}
				return
			}
			if w.Code != http.StatusAccepted {
				t.Fatalf("first POST: status %d, want 202: %s", w.Code, w.Body.String())
			}
			id := decode[jobEnvelope](t, w).Job.ID
			if j := pollJob(t, s, id); j.Status != JobDone {
				t.Fatalf("job = %+v, want done", j)
			}
			res := do(t, s, "GET", "/v1/jobs/"+id+"/result", "")
			hit := post(rt.path, rt.body, "")
			if hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "hit" {
				t.Fatalf("repeat: status %d X-Cache %q, want 200 hit", hit.Code, hit.Header().Get("X-Cache"))
			}
			if !bytes.Equal(hit.Body.Bytes(), res.Body.Bytes()) {
				t.Fatalf("cache hit bytes differ from /v1/jobs/%s/result", id)
			}
		})
	}
}
