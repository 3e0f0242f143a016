package daemon

import (
	"context"
	"net"
	"net/http"
	"time"

	"repro/internal/backend"
)

// Loopback is one in-process daemon serving on a kernel-assigned
// 127.0.0.1 port, with a Client pointed at it: the node the bench runner
// (internal/workload) and the soak test build their clusters from.
type Loopback struct {
	Server  *Server
	Client  *Client // Client.Base() is the node's "http://127.0.0.1:<port>"
	httpSrv *http.Server
}

// StartLoopback builds a Server for spec, serves it on 127.0.0.1:0 and
// marks it ready.
func StartLoopback(spec backend.Spec) (*Loopback, error) {
	srv, err := NewServer(spec)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &Loopback{Server: srv, Client: NewClient("http://"+ln.Addr().String(), nil), httpSrv: &http.Server{Handler: srv.Handler()}}
	go func() { _ = l.httpSrv.Serve(ln) }()
	srv.SetReady(true)
	return l, nil
}

// Stop shuts the listener down, then drains the stream connections
// (acking what they applied), within five seconds.
func (l *Loopback) Stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = l.httpSrv.Shutdown(ctx)
	_ = l.Server.DrainStreams(ctx)
}
