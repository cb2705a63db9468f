// Runs a command and reports the command's own peak RSS.
//
// Linux folds the peak RSS of the address space that execve replaces into
// the process's ru_maxrss, and Python starts its children through vfork,
// so a command launched straight from the benchmark's interpreter reports
// at least the interpreter's own peak (about 20 MB). This launcher is a
// small process: it forks, execs the command in the child and waits for
// it, so the command's ru_maxrss starts from this launcher's few MB instead.
// It links nothing from the program and is built with fixed flags.
//
//   launch RSS_FILE COMMAND [ARGS...]
//
// Writes the command's ru_maxrss in KiB to RSS_FILE and exits with the
// command's exit code (128 + the signal number when a signal ended it).
// The command inherits stdin, stdout and stderr.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: launch RSS_FILE COMMAND [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("launch: fork");
    return 127;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror(argv[2]);
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  pid_t waited = 0;
  do {
    waited = wait4(pid, &status, 0, &ru);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid) {
    std::perror("launch: wait4");
    return 127;
  }
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr || std::fprintf(out, "%ld\n", ru.ru_maxrss) < 0 ||
      std::fclose(out) != 0) {
    std::perror(argv[1]);
    return 127;
  }
  return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : WEXITSTATUS(status);
}
