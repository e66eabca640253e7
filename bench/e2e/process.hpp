/// \file process.hpp
/// \brief Child processes of bench_e2e: the re-exec of the bench itself for
///        each timed rep, and the oms_serve daemon of serve-mix.
///
/// A Child owns its process: the destructor kills and reaps a child that is
/// still running, so no error path leaves a process behind. Children start
/// through posix_spawn (vfork semantics), so the cost of starting one does
/// not grow with the parent's memory.
///
/// Peak memory is read from the child's own VmHWM (/proc/<pid>/status), not
/// from wait4's ru_maxrss: Linux folds the high-water mark of the address
/// space a process replaces at exec — the parent's, with its generated graph
/// — into ru_maxrss.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/trace.hpp"
#include "oms/util/io_error.hpp"

extern char** environ;

namespace oms::e2e {

/// VmHWM of process \p pid ("self" for the caller) in MiB; 0 if unreadable.
[[nodiscard]] inline double peak_rss_mib(const std::string& pid) {
  std::FILE* file = std::fopen(("/proc/" + pid + "/status").c_str(), "r");
  if (file == nullptr) {
    return 0.0;
  }
  char line[256];
  unsigned long kb = 0;
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lu", &kb);
      break;
    }
  }
  std::fclose(file);
  return static_cast<double>(kb) / 1024.0;
}

class Child {
public:
  /// Start argv[0] with \p argv. With \p output_path empty, the child's
  /// stdout is captured through a pipe (read_all); otherwise stdout and
  /// stderr both go to that file. Throws IoError if the process cannot start.
  Child(const std::vector<std::string>& argv, const std::string& output_path) {
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    int pipe_fds[2] = {-1, -1};
    if (output_path.empty()) {
      if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
        posix_spawn_file_actions_destroy(&actions);
        throw IoError("pipe: cannot capture child output");
      }
      posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
    } else {
      posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, output_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
      posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    }
    spawn_ns_ = steady_ns();
    const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (pipe_fds[1] >= 0) {
      ::close(pipe_fds[1]);
      read_fd_ = pipe_fds[0];
    }
    if (rc != 0) {
      pid_ = -1;
      if (read_fd_ >= 0) {
        ::close(read_fd_);
      }
      throw IoError("cannot start '" + argv[0] + "': " + std::strerror(rc));
    }
  }

  ~Child() {
    if (read_fd_ >= 0) {
      ::close(read_fd_);
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] std::uint64_t spawn_ns() const noexcept { return spawn_ns_; }

  /// Peak RSS so far, while the child runs.
  [[nodiscard]] double peak_rss_mib() const {
    return pid_ > 0 ? e2e::peak_rss_mib(std::to_string(pid_)) : 0.0;
  }

  /// True while the process has not exited (and was not reaped).
  [[nodiscard]] bool running() {
    if (pid_ <= 0) {
      return false;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      status_ = status;
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// The captured stdout, read until EOF. Throws IoError past \p timeout_s.
  [[nodiscard]] std::string read_all(double timeout_s) {
    std::string text;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    char buf[1 << 16];
    while (read_fd_ >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd p{read_fd_, POLLIN, 0};
      const int ready = left.count() > 0 ? ::poll(&p, 1, static_cast<int>(left.count())) : 0;
      if (ready == 0) {
        throw IoError("child did not finish within " + std::to_string(timeout_s) + " s");
      }
      if (ready < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw IoError("poll on child output failed");
      }
      const ssize_t got = ::read(read_fd_, buf, sizeof buf);
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        ::close(read_fd_);
        read_fd_ = -1;
        break;
      }
      text.append(buf, static_cast<std::size_t>(got));
    }
    return text;
  }

  /// Reap the child and return its wait status; throws IoError (the
  /// destructor then kills it) past \p timeout_s.
  [[nodiscard]] int wait(double timeout_s) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (running()) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw IoError("child did not exit within " + std::to_string(timeout_s) + " s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return status_;
  }

private:
  pid_t pid_ = -1;
  int read_fd_ = -1;
  std::uint64_t spawn_ns_ = 0;
  int status_ = 0;
};

[[nodiscard]] inline bool exited_cleanly(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace oms::e2e
