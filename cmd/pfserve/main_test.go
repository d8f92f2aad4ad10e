package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestPartialHeaderConnectionClosed pins the slow-client bound: a client
// that starts a request and never finishes its headers is disconnected
// once readHeaderTimeout passes, while bodies and responses keep no
// deadline (an event stream lasts as long as its job).
func TestPartialHeaderConnectionClosed(t *testing.T) {
	srv := httpServer("", http.NotFoundHandler())
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("read/write timeouts %v/%v would cut uploads and event streams", srv.ReadTimeout, srv.WriteTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
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
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: pfserve\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("connection still open %v after a partial header", time.Since(start))
		}
	}
	if took := time.Since(start); took < readHeaderTimeout/2 || took > readHeaderTimeout+2*time.Second {
		t.Fatalf("connection closed after %v, want about %v", took, readHeaderTimeout)
	}
}
