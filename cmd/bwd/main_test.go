package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/topology"
)

// TestNewServerTimeouts: the API server sets every timeout.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	for name, got := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if got <= 0 {
			t.Errorf("%s = %v, want > 0", name, got)
		}
	}
}

// TestSlowBodyClosed: a client that sends its headers and then trickles
// less body than it announced is cut off at the read timeout instead of
// holding its handler forever.
func TestSlowBodyClosed(t *testing.T) {
	svc, err := guarantee.New(topology.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	srv := newServer("127.0.0.1:0", guarantee.NewServer(svc).Handler())
	srv.ReadTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "POST /v1/guarantees HTTP/1.1\r\nHost: bwd\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n" + `{"tag":{"`
	if _, err := io.WriteString(conn, req+"x"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(2 * time.Second))
	// The server may answer before it closes; EOF or a reset both mean
	// the connection is gone.
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v", time.Since(start))
	}
}
