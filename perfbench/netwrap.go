package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// reqHeader carries the request ID the benchmark assigns, so a span
// recorded by a handler wrapper joins the client span of the same
// request.
const reqHeader = "X-Bench-Req"

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// server is one http.Server on a 127.0.0.1 listener, with the same
// timeouts sparker-serve sets.
type server struct {
	URL  string
	ln   *countingListener
	srv  *http.Server
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		URL: "http://" + ln.Addr().String(),
		ln:  &countingListener{Listener: ln},
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(s.ln)
	}()
	return s, nil
}

// Accepts is the number of connections the server has accepted.
func (s *server) Accepts() int64 { return s.ln.accepts.Load() }

// Close drops the listener and every connection, and waits for the
// serve loop to return.
func (s *server) Close() {
	_ = s.srv.Close()
	<-s.done
}

// exchange is what a handler wrapper saw of one request.
type exchange struct {
	r      *http.Request
	req    int64 // the benchmark's request ID, 0 when absent
	status int
	header http.Header
	bytes  int64
	body   []byte // the response body, kept only when the wrapper tees
	start  int64  // tracer clock
	end    int64
}

// recorder captures the status, size and optionally the body of a
// response on its way out.
type recorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	tee    *bytes.Buffer
}

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *recorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.tee != nil {
		w.tee.Write(b)
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// wrapHandler times every request to next on the tracer clock and
// hands the exchange to observe once the response is written. tee
// decides per request whether the response body is kept. While on
// reads false the wrapper passes requests straight through.
func wrapHandler(next http.Handler, tr *Tracer, on *atomic.Bool, tee func(*http.Request) bool, observe func(*exchange)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		rec := &recorder{ResponseWriter: w}
		if tee != nil && tee(r) {
			rec.tee = &bytes.Buffer{}
		}
		start := tr.Now()
		next.ServeHTTP(rec, r)
		end := tr.Now()
		ex := &exchange{r: r, status: rec.status, header: w.Header(), bytes: rec.bytes, start: start, end: end}
		if ex.status == 0 {
			ex.status = http.StatusOK
		}
		if rec.tee != nil {
			ex.body = rec.tee.Bytes()
		}
		ex.req, _ = strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		observe(ex)
	})
}

// client is the load generator's HTTP client: its own transport, so its
// connections are not shared with the program's default client, and at
// most conns connections per server.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr}
}

func (c *client) Close() { c.tr.CloseIdleConnections() }

// errStatus is a non-2xx answer.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and returns the response body; a non-2xx status
// is an error. req, when non-zero, travels in the request ID header.
func (c *client) do(method, url string, body []byte, req int64) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if req != 0 {
		r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		if len(out) > 200 {
			out = out[:200]
		}
		return nil, &errStatus{code: resp.StatusCode, body: string(bytes.TrimSpace(out))}
	}
	return out, nil
}

func (c *client) post(url string, body []byte, req int64) ([]byte, error) {
	return c.do(http.MethodPost, url, body, req)
}

// waitReady polls /readyz on every URL until each answers 200.
func waitReady(ctx context.Context, c *client, urls ...string) error {
	for _, u := range urls {
		for {
			if _, err := c.do(http.MethodGet, u+"/readyz", nil, 0); err == nil {
				break
			} else if !errors.As(err, new(*errStatus)) {
				return fmt.Errorf("readyz %s: %w", u, err)
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("readyz %s: %w", u, ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}
