// The daemon's wire protocol and Unix-domain-socket plumbing.
//
// Transport: a stream Unix socket carrying line-delimited JSON in both
// directions. Every request is one JSON object on one line; every response
// line is one JSON object with an "event" discriminator. A submit streams
// many lines before its terminal event, so clients read until "done" (or
// "error") rather than counting responses:
//
//   -> {"op":"ping"}
//   <- {"event":"pong","git_rev":"abc123"}
//   -> {"op":"submit","spec":"smoke;reps=2"}
//   <- {"event":"planned","sweep":"1f2e...","name":"smoke;reps=2","cells_min":12}
//   <- {"event":"cell","sweep":"1f2e...","policy":"equi","mix":1,"rep":0,
//       "seed":...,"source":"sim"}            (one per cell, fold order;
//                                              "source" is "cache" or "sim")
//   <- {"event":"result","sweep":"1f2e...","cells":12,"hits":0,"executed":12,
//       "json":"<the full schema-v1/v3 sweep document, escaped>"}
//   <- {"event":"done","sweep":"1f2e..."}
//   -> {"op":"stats"}
//   <- {"event":"stats","git_rev":...,"cache":{...},"service":{...}}
//   -> {"op":"shutdown"}
//   <- {"event":"bye"}
//
// The embedded "json" document is byte-identical to what the batch runner
// (`simctl --sweep`) writes for the same spec — the serving layer adds
// caching around the simulation, never inside it.

#ifndef SRC_SERVE_WIRE_H_
#define SRC_SERVE_WIRE_H_

#include <cstddef>
#include <string>

namespace affsched {

struct WireRequest {
  std::string op;    // "submit", "stats", "ping", "shutdown"
  std::string spec;  // submit only: a ParseSweepSpec string
};

// Parses one request line. Unknown ops parse fine (the daemon answers them
// with an error event); malformed JSON or a missing/non-string "op" fails.
bool ParseWireRequest(const std::string& line, WireRequest* request, std::string* error);

// {"event":"error","message":"<escaped>"} — the one response shape every
// client must handle.
std::string WireErrorEvent(const std::string& message);

// --- Unix-domain-socket helpers ------------------------------------------

// Binds and listens on `path` (an existing stale socket file is replaced).
// Returns the listening fd, or -1 with `error` set.
int ListenUnix(const std::string& path, std::string* error);

// Connects to a listening socket. Returns the fd, or -1 with `error` set.
int ConnectUnix(const std::string& path, std::string* error);

// How many bytes a LineChannel buffers while waiting for a '\n'. A request
// is one spec string, far shorter, so a peer that streams more without a
// newline is hostile or broken.
inline constexpr size_t kMaxLineBytes = size_t{1} << 20;

// Blocking line-based framing over an fd. Close-on-destroy.
class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}
  ~LineChannel();
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  // Reads up to the next '\n' (not included). False on EOF or error with no
  // buffered data; a final unterminated line is returned before EOF. Also
  // false, with overlong() set, once more than kMaxLineBytes arrive without
  // a '\n'; the channel then reads nothing more.
  bool ReadLine(std::string* line);
  bool overlong() const { return overlong_; }

  // Writes `line` plus '\n', retrying short writes. False on error (EPIPE
  // when the peer hung up mid-stream).
  bool WriteLine(const std::string& line);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
  bool overlong_ = false;
};

}  // namespace affsched

#endif  // SRC_SERVE_WIRE_H_
