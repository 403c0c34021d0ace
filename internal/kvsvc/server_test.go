package kvsvc

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/gosmr/gosmr/internal/arena"
)

// startServer boots a server on ephemeral ports and returns it with its
// Serve goroutine running.
func startServer(t *testing.T, scheme string) *Server {
	t.Helper()
	st, err := NewStore(Config{Shards: 4, Scheme: scheme, Mode: arena.ModeDetect, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, ServerConfig{
		Addr:      "127.0.0.1:0",
		AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	return srv
}

type testClient struct {
	c  net.Conn
	br *bufio.Reader
	t  *testing.T
}

func dialClient(t *testing.T, addr string) *testClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &testClient{c: c, br: bufio.NewReader(c), t: t}
}

func (tc *testClient) send(reqs ...Request) {
	tc.t.Helper()
	var buf []byte
	for _, r := range reqs {
		buf = AppendRequest(buf, r)
	}
	if _, err := tc.c.Write(buf); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testClient) recv(n int) map[uint32]Response {
	tc.t.Helper()
	out := map[uint32]Response{}
	var buf []byte
	for i := 0; i < n; i++ {
		var err error
		buf, err = ReadFrame(tc.br, buf)
		if err != nil {
			tc.t.Fatalf("response %d/%d: %v", i, n, err)
		}
		resp, err := DecodeResponse(buf)
		if err != nil {
			tc.t.Fatal(err)
		}
		out[resp.ID] = resp
	}
	return out
}

func TestServerEndToEnd(t *testing.T) {
	srv := startServer(t, "hp++")
	tc := dialClient(t, srv.Addr())

	// One pipelined burst: puts, gets, deletes, a re-get and a ping.
	var reqs []Request
	id := uint32(0)
	for k := uint64(0); k < 32; k++ {
		reqs = append(reqs, Request{Op: OpPut, ID: id, Key: k, Val: k + 100})
		id++
	}
	for k := uint64(0); k < 32; k++ {
		reqs = append(reqs, Request{Op: OpGet, ID: id, Key: k})
		id++
	}
	for k := uint64(0); k < 32; k += 2 {
		reqs = append(reqs, Request{Op: OpDel, ID: id, Key: k})
		id++
	}
	for k := uint64(0); k < 32; k++ {
		reqs = append(reqs, Request{Op: OpGet, ID: id, Key: k})
		id++
	}
	reqs = append(reqs, Request{Op: OpPing, ID: id})
	tc.send(reqs...)
	got := tc.recv(len(reqs))

	for i := uint32(0); i < 32; i++ { // puts
		if got[i].Status != StatusOK {
			t.Fatalf("put %d: status %d", i, got[i].Status)
		}
	}
	for i := uint32(32); i < 64; i++ { // first round of gets
		k := uint64(i - 32)
		if got[i].Status != StatusOK || got[i].Val != k+100 {
			t.Fatalf("get key %d: %+v", k, got[i])
		}
	}
	for i := uint32(64); i < 80; i++ { // deletes of even keys
		if got[i].Status != StatusOK {
			t.Fatalf("del %d: status %d", i, got[i].Status)
		}
	}
	for i := uint32(80); i < 112; i++ { // second round of gets
		k := uint64(i - 80)
		want := StatusNotFound
		if k%2 == 1 {
			want = StatusOK
		}
		if got[i].Status != want {
			t.Fatalf("re-get key %d: status %d, want %d", k, got[i].Status, want)
		}
	}
	if got[id].Status != StatusOK { // ping
		t.Fatalf("ping: %+v", got[id])
	}

	tc.c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if srv.Served() == 0 {
		t.Fatal("server served nothing")
	}
}

func TestServerAdminStats(t *testing.T) {
	srv := startServer(t, "pebr")
	tc := dialClient(t, srv.Addr())
	var reqs []Request
	for i := uint32(0); i < 64; i++ {
		reqs = append(reqs, Request{Op: OpPut, ID: i, Key: uint64(i), Val: 1})
	}
	tc.send(reqs...)
	tc.recv(len(reqs))

	resp, err := http.Get("http://" + srv.AdminAddr() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st AdminStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Scheme != "pebr" || st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("admin stats header wrong: %+v", st)
	}
	if st.ServedOps < 64 {
		t.Fatalf("served_ops = %d, want >= 64", st.ServedOps)
	}
	if st.Total.Scheme != "pebr" {
		t.Fatalf("total scheme %q", st.Total.Scheme)
	}
	if st.ArenaLiveBytes == 0 {
		t.Fatal("no live arena bytes after 64 puts")
	}

	hr, err := http.Get("http://" + srv.AdminAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("healthz status %d", hr.StatusCode)
	}

	tc.c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerDropsGarbageConnection: a malformed frame closes only the
// offending connection; the server keeps serving others and still drains
// cleanly.
func TestServerDropsGarbageConnection(t *testing.T) {
	srv := startServer(t, "ebr")

	bad := dialClient(t, srv.Addr())
	bad.c.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02}) // oversized length prefix
	if _, err := bad.br.ReadByte(); err == nil {
		t.Fatal("server kept the connection open after a garbage frame")
	}
	bad.c.Close()

	good := dialClient(t, srv.Addr())
	good.send(Request{Op: OpPut, ID: 1, Key: 5, Val: 6}, Request{Op: OpGet, ID: 2, Key: 5})
	got := good.recv(2)
	if got[2].Status != StatusOK || got[2].Val != 6 {
		t.Fatalf("get after garbage conn: %+v", got[2])
	}
	good.c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerShutdownForcesStragglers: a connection that never closes is
// force-closed when the drain context expires, and Shutdown still
// completes cleanly.
func TestServerShutdownForcesStragglers(t *testing.T) {
	srv := startServer(t, "hp++")
	straggler := dialClient(t, srv.Addr())
	straggler.send(Request{Op: OpPut, ID: 1, Key: 1, Val: 1})
	straggler.recv(1)
	// Leave the connection open and idle.

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("shutdown hung past the drain deadline")
	}
	straggler.c.Close()
}
