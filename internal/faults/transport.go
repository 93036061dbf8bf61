package faults

// Transport-layer fault injection: the chaos-client side of the
// gateway's overload-protection story. Where faults.Injector degrades
// the telemetry INSIDE a session, HTTPSchedule degrades the HTTP
// clients OUTSIDE the service — dropped connections, slow bodies,
// oversized and truncated payloads — the adversarial traffic the E16
// chaos harness throws at a live socket while kill/restart cycles run.
//
// The determinism contract matches the rest of the package: the fault
// class for request index i is a pure function of (seed, i), derived
// with the same splitmix64 finalizer, so the set of requests that get
// acknowledged — and with it every E16 table byte — is independent of
// client concurrency and scheduling.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/parallel"
)

// HTTPClass enumerates the transport fault classes a chaos client can
// inject into one request.
type HTTPClass int

const (
	// HTTPNone sends a well-formed request and reads the response.
	HTTPNone HTTPClass = iota
	// HTTPDrop closes the TCP connection halfway through the request —
	// the server must not have acknowledged (no 2xx was readable).
	HTTPDrop
	// HTTPSlowBody dribbles the body in small chunks. A correct server
	// tolerates it (within its read timeout) and still acknowledges.
	HTTPSlowBody
	// HTTPOversize sends a body past the server's cap; the contract is
	// a 413, never an acknowledgement and never unbounded buffering.
	HTTPOversize
	// HTTPTruncate declares a Content-Length longer than the bytes sent
	// and half-closes; the contract is a 400-class refusal.
	HTTPTruncate
)

// String names the class (table and log labels).
func (c HTTPClass) String() string {
	switch c {
	case HTTPNone:
		return "none"
	case HTTPDrop:
		return "drop"
	case HTTPSlowBody:
		return "slow"
	case HTTPOversize:
		return "oversize"
	case HTTPTruncate:
		return "truncate"
	default:
		return fmt.Sprintf("HTTPClass(%d)", int(c))
	}
}

// HTTPSchedule is the deterministic per-request fault schedule. Rate is
// the fraction of requests faulted (split uniformly across the four
// fault classes); Seed selects the schedule.
type HTTPSchedule struct {
	Rate float64
	Seed int64
	// Deadline bounds one chaos request's whole conversation (dial
	// excluded): the Send-side SetDeadline. Zero means the 30s default.
	// Harnesses that dribble bodies on loaded CI, or run the server on
	// a scaled clock, size this to their own timeout budget instead of
	// inheriting a hardcoded constant.
	Deadline time.Duration
}

// defaultSendDeadline is the per-request conversation bound when the
// schedule does not set one.
const defaultSendDeadline = 30 * time.Second

// deadline resolves the configured per-request bound.
func (s HTTPSchedule) deadline() time.Duration {
	if s.Deadline > 0 {
		return s.Deadline
	}
	return defaultSendDeadline
}

// ClassAt is the pure schedule function: the fault class for request
// index i. Identical (Rate, Seed, i) always yields the identical class,
// regardless of which goroutine asks.
func (s HTTPSchedule) ClassAt(i int) HTTPClass {
	if s.Rate <= 0 {
		return HTTPNone
	}
	base := parallel.DeriveSeed(s.Seed^int64(fnv64a("http-transport")), 0)
	drawAt := func(salt int64) float64 {
		z := parallel.DeriveSeed(base^salt, i)
		return float64(uint64(z)>>11) / (1 << 53)
	}
	if drawAt(0x7a11) >= s.Rate {
		return HTTPNone
	}
	return HTTPClass(1 + int(drawAt(0xc0de)*4))
}

// SendChaos issues one POST over a raw TCP connection, injecting the
// given fault class, and returns the HTTP status code it observed (0
// when the fault prevents any response, e.g. HTTPDrop). bodyCap is the
// server's advertised body limit — HTTPOversize sends past it. The
// conversation deadline comes from the schedule (s.Deadline, 30s when
// unset) rather than a hardcoded constant, so slow-body cases on a
// loaded CI box are cut short only when the harness asked for it.
func (s HTTPSchedule) SendChaos(addr, path, apiKey string, body []byte, class HTTPClass, bodyCap int) (int, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(s.deadline()))

	if class == HTTPOversize {
		// Pad deterministically past the cap; the server must refuse at
		// the cap, so content beyond it never needs to be valid JSON.
		pad := make([]byte, bodyCap+1024-len(body))
		for i := range pad {
			pad[i] = ' '
		}
		body = append(append([]byte{}, body...), pad...)
	}
	declared := len(body)
	if class == HTTPTruncate {
		declared = len(body) + 512 // promise more than we send
	}

	var req strings.Builder
	fmt.Fprintf(&req, "POST %s HTTP/1.1\r\n", path)
	fmt.Fprintf(&req, "Host: %s\r\n", addr)
	fmt.Fprintf(&req, "X-API-Key: %s\r\n", apiKey)
	req.WriteString("Content-Type: application/json\r\n")
	fmt.Fprintf(&req, "Content-Length: %d\r\n", declared)
	req.WriteString("Connection: close\r\n\r\n")
	head := req.String()

	switch class {
	case HTTPDrop:
		// Headers plus half the body, then a hard close: the server can
		// never have put a 2xx on the wire that we read.
		if _, err := io.WriteString(conn, head); err != nil {
			return 0, nil // already torn down: still "no ack"
		}
		_, _ = conn.Write(body[:len(body)/2])
		return 0, nil
	case HTTPSlowBody:
		if _, err := io.WriteString(conn, head); err != nil {
			return 0, err
		}
		for off := 0; off < len(body); off += 16 {
			end := off + 16
			if end > len(body) {
				end = len(body)
			}
			if _, err := conn.Write(body[off:end]); err != nil {
				return 0, err
			}
			time.Sleep(time.Millisecond)
		}
	default:
		if _, err := io.WriteString(conn, head); err != nil {
			return 0, err
		}
		if _, err := conn.Write(body); err != nil {
			return 0, err
		}
		if class == HTTPTruncate {
			// Half-close: the server sees EOF short of Content-Length
			// but can still write its refusal back to us.
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			}
		}
	}
	return readStatus(conn)
}

// readStatus parses the status code off an HTTP/1.x response and drains
// the rest.
func readStatus(conn net.Conn) (int, error) {
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reading status line: %w", err)
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return 0, fmt.Errorf("malformed status line %q", strings.TrimSpace(line))
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, fmt.Errorf("malformed status code in %q", strings.TrimSpace(line))
	}
	_, _ = io.Copy(io.Discard, br)
	return code, nil
}
