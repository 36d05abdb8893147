package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/robust"
)

// Stable error codes of the JSON error envelope. Clients dispatch on the
// code, never on the message text, so the set below is part of the wire
// contract (DESIGN.md §10) and existing values must not change meaning.
const (
	// CodeBadRequest marks a syntactically broken request: unparseable
	// JSON, a missing body, an unusable query parameter.
	CodeBadRequest = "bad_request"
	// CodeValidation marks a well-formed request with semantically invalid
	// content: out-of-domain parameter overrides, a malformed space, a
	// point of the wrong dimension.
	CodeValidation = "validation"
	// CodeNotFound marks an unknown route or an unknown catalog entry.
	CodeNotFound = "not_found"
	// CodeOverloaded is the admission controller's load-shedding answer;
	// the response carries a Retry-After header.
	CodeOverloaded = "overloaded"
	// CodeUnavailable is returned while the server is draining for
	// shutdown.
	CodeUnavailable = "unavailable"
	// CodeTimeout marks a request that exceeded its evaluation deadline.
	CodeTimeout = "timeout"
	// CodeCanceled marks a request abandoned by the client before the
	// evaluation finished.
	CodeCanceled = "canceled"
	// CodeEvaluatorPanic marks an evaluation whose panic the engine
	// isolated but could not retry into success.
	CodeEvaluatorPanic = "evaluator_panic"
	// CodeEvaluationFailed marks an evaluation whose final outcome after
	// retries was an error other than a panic or cancellation.
	CodeEvaluationFailed = "evaluation_failed"
	// CodeInternal marks a server-side fault (isolated handler panic,
	// unexpected error class).
	CodeInternal = "internal"
	// CodeUnauthorized marks a request whose API key is missing or
	// unknown when a tenant table is configured.
	CodeUnauthorized = "unauthorized"
	// CodeRateLimited is a tenant's token-bucket shed; the response
	// carries a Retry-After header sized to the bucket's refill.
	CodeRateLimited = "rate_limited"
	// CodeConflict marks a request that contends with live state owned by
	// another request: a checkpoint name already in use by a running
	// sweep, or a job transition that its current state forbids.
	CodeConflict = "conflict"
)

// ErrorBody is the payload of every non-2xx JSON response.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the wire shape: the error object under a single
// "error" key, so success and failure payloads can never be confused.
type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// statusError is a request failure with a fixed envelope: classify
// maps it to its own status and code, and its message is the envelope's.
type statusError struct {
	status int
	code   string
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// validationf builds a request-content failure (400 validation).
func validationf(format string, args ...interface{}) error {
	return &statusError{http.StatusBadRequest, CodeValidation, fmt.Sprintf(format, args...)}
}

// notFoundf builds an unknown-catalog-entry failure (404 not_found).
func notFoundf(format string, args ...interface{}) error {
	return &statusError{http.StatusNotFound, CodeNotFound, fmt.Sprintf(format, args...)}
}

// unauthorizedf builds an API-key failure (401 unauthorized).
func unauthorizedf(format string, args ...interface{}) error {
	return &statusError{http.StatusUnauthorized, CodeUnauthorized, fmt.Sprintf(format, args...)}
}

// conflictf builds a live-state contention failure (409 conflict).
func conflictf(format string, args ...interface{}) error {
	return &statusError{http.StatusConflict, CodeConflict, fmt.Sprintf(format, args...)}
}

// classify maps an error from the evaluation stack onto the stable
// (HTTP status, code, details) triple of the envelope contract.
func classify(err error) (int, ErrorBody) {
	var se *statusError
	var pe *robust.PanicError
	switch {
	case errors.As(err, &se):
		return se.status, ErrorBody{Code: se.code, Message: se.msg}
	case errors.Is(err, core.ErrInvalidApp):
		return http.StatusBadRequest, ErrorBody{Code: CodeValidation, Message: err.Error()}
	case errors.As(err, &pe):
		return http.StatusInternalServerError, ErrorBody{Code: CodeEvaluatorPanic, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ErrorBody{Code: CodeTimeout, Message: "evaluation deadline exceeded"}
	case errors.Is(err, context.Canceled):
		// 499 is the de-facto "client closed request" status; there is no
		// stdlib constant for it.
		return 499, ErrorBody{Code: CodeCanceled, Message: "request canceled"}
	default:
		return http.StatusUnprocessableEntity, ErrorBody{Code: CodeEvaluationFailed, Message: err.Error()}
	}
}

// writeError renders err as the JSON envelope with the classified status.
func writeError(w http.ResponseWriter, err error) {
	status, body := classify(err)
	writeErrorBody(w, status, body)
}

// writeErrorBody renders an explicit envelope.
func writeErrorBody(w http.ResponseWriter, status int, body ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a flat struct of strings cannot fail; the error return is
	// the client hanging up mid-write, which has no remedy here.
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: body})
}

// retryAfterSeconds converts a hint duration into the integer-second
// Retry-After header value, rounding up so the client never retries
// before the hint elapses.
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	return max(int((d+time.Second-1)/time.Second), 1)
}
