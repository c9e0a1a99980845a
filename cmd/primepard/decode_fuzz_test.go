package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

// planBodySeeds are /v1/plan bodies: valid requests, the negative values
// that once fell back to defaults, the retired approximate-search fields
// (now unknown), oversized or malformed values, and a second value after
// the request object.
var planBodySeeds = []string{
	`{"model":"OPT-6.7B","devices":4}`,
	`{"model":"Llama2-70B","devices":32,"devices_per_node":8,"profile":"a100-superpod","alpha":0,"layers":2,"batch":4}`,
	`{"model":"OPT-6.7B","devices":8,"pipeline":{"stages":"auto","micro_batch":2,"global_batch":32}}`,
	`{"model":"OPT-6.7B","devices":4,"links":[{"devices":4,"bandwidth":3e11,"latency":5e-6},{"devices":-1,"bandwidth":2.5e10,"latency":1.5e-5}]}`,
	`{"model":"OPT-6.7B","devices":4,"batch":-1}`,
	`{"model":"OPT-6.7B","devices":4,"deadline_ms":-1}`,
	`{"model":"OPT-6.7B","devices":4,"beam":8}`,
	`{"model":"OPT-6.7B","devices":4,"budget_ms":50}`,
	`{"model":"OPT-6.7B","devices":4,"beam":-1,"budget_ms":9223372036854775}`,
	`{"model":"OPT-175B","devices":1024}`,
	`{"model":"OPT-175B","devices":128,"pipeline":{"stages":"auto","micro_batch":2,"global_batch":64}}`,
	`{"model":"OPT-6.7B","devices":4,"deadline_ms":9223372036854775807}`,
	`{"model":"OPT-6.7B","devices":4,"layers":-2}`,
	`{"model":"OPT-6.7B","devices":4,"alpha":-1}`,
	`{"model":"OPT-6.7B","devices":3}`,
	`{`,
	`{"model":"OPT-6.7B","devices":8}{"devices":64} garbage`,
}

// decodeWatchdog runs fn, crashing the fuzz worker (so the fuzzer records
// the input) if fn has not returned within the limit: a hang never comes
// back to a check placed after the call.
func decodeWatchdog(body []byte, limit time.Duration, fn func()) {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-done:
		case <-time.After(limit):
			panic(fmt.Sprintf("decode and validate have run for %s on %q", limit, body))
		}
	}()
	fn()
}

// checkBadRequest fails unless aerr is the uniform 400 bad_request envelope.
func checkBadRequest(t *testing.T, aerr *apiError) {
	t.Helper()
	if aerr.status != http.StatusBadRequest || aerr.code != "bad_request" || aerr.message == "" || aerr.retryable {
		t.Fatalf("validation failure is not a bad_request envelope: %+v", aerr)
	}
}

// postBody builds the request and recorder a handler's decode step reads.
func postBody(path string, body []byte) (*httptest.ResponseRecorder, *http.Request) {
	return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
}

// FuzzPlanRequestDecode runs handlePlan's strict decode and preparePlan (the
// validation, defaulting and cost estimate every /v1/plan runs before
// admission) on arbitrary bodies. It never searches. Each input must end,
// within the watchdog's limit, in a prepared job or a bad_request envelope,
// never a panic.
func FuzzPlanRequestDecode(f *testing.F) {
	for _, b := range planBodySeeds {
		f.Add([]byte(b))
	}
	s := newServer(core.NewSearchCache(), "", time.Minute, 5*time.Minute, noAdmission)
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeWatchdog(body, 10*time.Second, func() {
			var req PlanRequest
			w, r := postBody("/v1/plan", body)
			if aerr := decodeStrict(w, r, &req); aerr != nil {
				checkBadRequest(t, aerr)
				return
			}
			job, aerr := s.preparePlan(&req)
			if aerr != nil {
				checkBadRequest(t, aerr)
				return
			}
			if job == nil || job.est.Work <= 0 {
				t.Fatalf("prepared a job with no work estimate: %+v", job)
			}
		})
	})
}
