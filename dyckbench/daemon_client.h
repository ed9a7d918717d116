// A closed-loop client for the shipped dyckfixd binary: spawns it with
// pipes on its stdin and stdout and speaks the dyckfix/1 line protocol.

#ifndef DYCKBENCH_DAEMON_CLIENT_H_
#define DYCKBENCH_DAEMON_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dyckbench {

/// One parsed response frame.
struct Response {
  uint64_t id = 0;
  std::string status;
  std::vector<std::pair<std::string, std::string>> fields;
  std::string msg;  // free text after "msg=", if any
  std::string payload;
  size_t wire_bytes = 0;  // header line + payload, with terminators

  /// The value of `key`, or "" when absent.
  std::string Field(std::string_view key) const;
};

/// Serializes one request frame; a non-null payload adds len=.
std::string Frame(uint64_t id, std::string_view verb,
                  const std::vector<std::pair<std::string, std::string>>& fields,
                  const std::string* payload = nullptr);

class DaemonClient {
 public:
  /// Starts `argv[0]` with `argv`; returns false (and a reason) on failure.
  bool Start(const std::vector<std::string>& argv, std::string* error);
  /// Closes the pipes and reaps the child; kills it if it is still running.
  ~DaemonClient();

  DaemonClient() = default;
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  bool Send(std::string_view bytes);
  /// Blocks for the next response; false on EOF or a malformed frame.
  bool Read(Response* out);
  /// Closes stdin and waits for the exit; returns the exit code, or -1.
  int CloseAndWait();

  /// On-CPU seconds of the child's live threads and its peak resident MB,
  /// read from /proc while it runs.
  double CpuSeconds() const;
  double PeakRssMb() const;

 private:
  bool FillBuffer();
  bool ReadLine(std::string* line);
  bool ReadExact(size_t n, std::string* out);

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  size_t offset_ = 0;
};

}  // namespace dyckbench

#endif  // DYCKBENCH_DAEMON_CLIENT_H_
