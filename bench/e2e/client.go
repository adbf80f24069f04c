package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// client is the benchmark's whole load generator: one goroutine writing
// HTTP/1.1 requests to one keep-alive connection and reading each answer
// before sending the next (a closed loop of one). It is hand-rolled so that
// no transport goroutines, pools or retries sit between the clock and the
// socket.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	host string
	out  []byte // request scratch
	body []byte // response scratch, valid until the next call
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), host: addr}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and reads the whole response. The returned body
// aliases the client's scratch buffer.
func (c *client) do(method, path string, body []byte) (status int, resp []byte, err error) {
	b := c.out[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	if method != http.MethodGet {
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.out = b
	// One deadline per request: a wedged server fails the run instead of
	// hanging it past the driver's limit.
	if err := c.conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(b); err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	r, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.body, err = readAllInto(c.body[:0], r.Body)
	r.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return r.StatusCode, c.body, nil
}

// readAllInto is io.ReadAll into a caller-owned buffer.
func readAllInto(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
