package middleware

import (
	"errors"
	"fmt"
)

// ErrBadRequest marks errors caused by the request itself (unknown keyword,
// missing column for the requested condition, no conditions at all) rather
// than by the serving layer. The HTTP handler maps it to 400; everything
// else is a 500. Test with errors.Is(err, ErrBadRequest).
var ErrBadRequest = errors.New("bad request")

// ErrCanceled is the error a result-cache miss returns when its request's
// context is done before the answer is computed (the client went away). The
// HTTP handler maps it to 499 and counts it in exec_canceled_total.
var ErrCanceled = errors.New("middleware: request canceled")

// ErrDraining is the error Ingest returns once the server is draining or
// closed: the rows were not taken, and the client should retry elsewhere or
// later. The HTTP handler maps it to 503 + Retry-After.
var ErrDraining = errors.New("middleware: server is draining")

// requestError is an error that errors.Is-matches ErrBadRequest while
// keeping a clean message.
type requestError struct{ msg string }

func (e *requestError) Error() string        { return e.msg }
func (e *requestError) Is(target error) bool { return target == ErrBadRequest }

// badRequestf builds a request-caused error.
func badRequestf(format string, args ...any) error {
	return &requestError{msg: "middleware: " + fmt.Sprintf(format, args...)}
}
