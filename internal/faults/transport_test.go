package faults

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosTarget mimics the gateway's body handling: MaxBytesReader cap,
// 413 on overflow, 400 on short reads, 201 on a complete body.
func chaosTarget(cap int64) (*httptest.Server, *sync.Map) {
	var acked sync.Map
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, cap))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				w.WriteHeader(http.StatusRequestEntityTooLarge)
				return
			}
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		acked.Store(string(body), true)
		w.WriteHeader(http.StatusCreated)
	})
	return httptest.NewServer(h), &acked
}

// TestSendChaosClasses pins each fault class's observable contract
// against a live socket.
func TestSendChaosClasses(t *testing.T) {
	t.Parallel()
	ts, acked := chaosTarget(1024)
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	body := []byte(`{"id":"chaos-1"}`)

	cases := []struct {
		class HTTPClass
		want  int
		ack   bool
	}{
		{HTTPNone, http.StatusCreated, true},
		{HTTPSlowBody, http.StatusCreated, true},
		{HTTPOversize, http.StatusRequestEntityTooLarge, false},
		{HTTPTruncate, http.StatusBadRequest, false},
		{HTTPDrop, 0, false},
	}
	for _, tc := range cases {
		code, err := HTTPSchedule{}.SendChaos(addr, "/v1/incidents", "k", body, tc.class, 1024)
		if err != nil {
			t.Fatalf("%v: SendChaos: %v", tc.class, err)
		}
		if code != tc.want {
			t.Errorf("%v: status %d, want %d", tc.class, code, tc.want)
		}
		_, got := acked.Load(string(body))
		if got != tc.ack {
			t.Errorf("%v: server acked=%v, want %v", tc.class, got, tc.ack)
		}
		acked.Delete(string(body))
	}
}

// TestHTTPScheduleDeadline pins the deadline plumbing: the schedule's
// configured bound reaches SetDeadline (a too-short one times a
// conversation out), unset falls back to the 30s default, and the
// free-function form keeps that default.
func TestHTTPScheduleDeadline(t *testing.T) {
	t.Parallel()
	if d := (HTTPSchedule{}).deadline(); d != defaultSendDeadline {
		t.Errorf("unset deadline resolves to %s, want %s", d, defaultSendDeadline)
	}
	if d := (HTTPSchedule{Deadline: 2 * time.Minute}).deadline(); d != 2*time.Minute {
		t.Errorf("configured deadline resolves to %s, want 2m", d)
	}

	// A server that never answers: only the configured deadline can end
	// the conversation, so a tiny one must surface as a read error fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			_, _ = io.Copy(io.Discard, c) // read forever, say nothing
		}
	}()
	start := time.Now()
	s := HTTPSchedule{Deadline: 50 * time.Millisecond}
	if _, err := s.SendChaos(ln.Addr().String(), "/v1/incidents", "k", []byte(`{}`), HTTPNone, 1024); err == nil {
		t.Fatal("mute server: expected a deadline error, got a response")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("50ms deadline took %s to fire — configured value not threaded", took)
	}
}

// TestHTTPScheduleDeterminism: the class at an index is a pure function
// of (rate, seed, index) — repeated asks and different "concurrency"
// never change it — and rate 0 faults nothing.
func TestHTTPScheduleDeterminism(t *testing.T) {
	t.Parallel()
	s := HTTPSchedule{Rate: 0.5, Seed: 99}
	first := make([]HTTPClass, 200)
	for i := range first {
		first[i] = s.ClassAt(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := s.ClassAt(i); got != first[i] {
					t.Errorf("index %d: %v then %v", i, first[i], got)
					return
				}
			}
		}()
	}
	wg.Wait()

	if (HTTPSchedule{Rate: 0, Seed: 99}).ClassAt(7) != HTTPNone {
		t.Error("rate 0 injected a fault")
	}
	counts := map[HTTPClass]int{}
	for i := 0; i < 2000; i++ {
		counts[s.ClassAt(i)]++
	}
	faulted := 2000 - counts[HTTPNone]
	if faulted < 800 || faulted > 1200 {
		t.Errorf("rate 0.5 faulted %d/2000", faulted)
	}
	for _, c := range []HTTPClass{HTTPDrop, HTTPSlowBody, HTTPOversize, HTTPTruncate} {
		if counts[c] == 0 {
			t.Errorf("class %v never drawn in 2000 requests", c)
		}
	}
}
