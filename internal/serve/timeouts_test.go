package serve

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"entityres/er"
)

// TestSlowHeaderClosed: a client that dribbles its request header, one
// byte at a time, never completes a request; the server closes the
// connection once the header deadline passes instead of holding it open.
func TestSlowHeaderClosed(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond

	res, err := er.Open(context.Background(), er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	srv := NewServer(res, Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	answered := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(conn)
		answered <- b
	}()
	if _, err := io.WriteString(conn, "GET /v1/stats HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case b := <-answered:
			if len(b) != 0 {
				t.Fatalf("server answered a request whose header never finished: %q", b)
			}
			return
		case <-deadline:
			t.Fatal("server kept a dribbling client's connection open")
		case <-tick.C:
			conn.Write([]byte("a")) // fails once the server has closed
		}
	}
}
