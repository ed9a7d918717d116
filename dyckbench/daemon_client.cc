#include "daemon_client.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

extern char** environ;

namespace dyckbench {

std::string Response::Field(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return "";
}

std::string Frame(uint64_t id, std::string_view verb,
                  const std::vector<std::pair<std::string, std::string>>& fields,
                  const std::string* payload) {
  std::string out = "dyckfix/1 " + std::to_string(id) + " ";
  out.append(verb);
  for (const auto& [k, v] : fields) {
    out += " " + k + "=" + v;
  }
  if (payload != nullptr) {
    out += " len=" + std::to_string(payload->size()) + "\n";
    out += *payload;
  }
  out.push_back('\n');
  return out;
}

bool DaemonClient::Start(const std::vector<std::string>& argv,
                         std::string* error) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    close(in_pipe[0]);
    close(in_pipe[1]);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc =
      posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    *error = "spawn " + argv[0] + ": " + std::strerror(rc);
    return false;
  }
  return true;
}

DaemonClient::~DaemonClient() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    CloseAndWait();
  }
  if (from_child_ >= 0) close(from_child_);
}

bool DaemonClient::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = write(to_child_, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool DaemonClient::FillBuffer() {
  if (offset_ > 0 && offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = read(from_child_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }
}

bool DaemonClient::ReadLine(std::string* line) {
  for (;;) {
    const size_t nl = buffer_.find('\n', offset_);
    if (nl != std::string::npos) {
      line->assign(buffer_, offset_, nl - offset_);
      offset_ = nl + 1;
      return true;
    }
    if (!FillBuffer()) return false;
  }
}

bool DaemonClient::ReadExact(size_t n, std::string* out) {
  while (buffer_.size() - offset_ < n) {
    if (!FillBuffer()) return false;
  }
  out->assign(buffer_, offset_, n);
  offset_ += n;
  return true;
}

bool DaemonClient::Read(Response* out) {
  *out = Response();
  std::string line;
  if (!ReadLine(&line)) return false;
  out->wire_bytes = line.size() + 1;
  // "dyckfix/1 id status k=v ... [msg=rest]"
  std::istringstream in(line);
  std::string magic, id;
  if (!(in >> magic >> id >> out->status) || magic != "dyckfix/1") {
    return false;
  }
  out->id = std::stoull(id);
  std::string token;
  size_t payload_len = 0;
  bool has_payload = false;
  while (in >> token) {
    if (token.rfind("msg=", 0) == 0) {
      std::string rest;
      std::getline(in, rest);
      out->msg = token.substr(4) + rest;
      break;
    }
    const size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "len") {
      payload_len = std::stoull(value);
      has_payload = true;
    } else {
      out->fields.emplace_back(key, value);
    }
  }
  if (has_payload) {
    std::string terminator;
    if (!ReadExact(payload_len, &out->payload) ||
        !ReadExact(1, &terminator) || terminator != "\n") {
      return false;
    }
    out->wire_bytes += payload_len + 1;
  }
  return true;
}

int DaemonClient::CloseAndWait() {
  if (to_child_ >= 0) {
    close(to_child_);
    to_child_ = -1;
  }
  if (pid_ <= 0) return -1;
  int status = 0;
  pid_t r;
  do {
    r = waitpid(pid_, &status, 0);
  } while (r < 0 && errno == EINTR);
  pid_ = -1;
  if (r < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

double DaemonClient::CpuSeconds() const {
  // The first field of each thread's schedstat is its on-CPU time in ns.
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  DIR* dir = opendir(tasks.c_str());
  if (dir == nullptr) return 0;
  double ns = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream schedstat(tasks + "/" + entry->d_name + "/schedstat");
    double thread_ns = 0;
    if (schedstat >> thread_ns) ns += thread_ns;
  }
  closedir(dir);
  return ns * 1e-9;
}

double DaemonClient::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

}  // namespace dyckbench
