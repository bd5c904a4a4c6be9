/* peak_rss: run a command and report its own peak resident set size.
 *
 *   peak_rss COMMAND [ARGS...]
 *
 * Forks, execs COMMAND (searched in PATH), waits with wait4() and prints
 * "peak_rss_kb=N" on stderr, N being the child's ru_maxrss. Exits with the
 * child's status (128 + signal when it was killed).
 *
 * A child forked from a large parent (a Python interpreter) inherits the
 * parent's RSS in ru_maxrss, which hides any smaller peak. This parent is
 * a few hundred KB, so the figure is the command's own.
 *
 * Build: cc -O2 -o peak_rss tools/peak_rss.c
 */
#include <stdio.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

int main(int argc, char** argv) {
  if (argc < 2) {
    fprintf(stderr, "usage: %s COMMAND [ARGS...]\n", argv[0]);
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    perror("fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[1], argv + 1);
    perror(argv[1]);
    _exit(127);
  }
  int status = 0;
  struct rusage usage;
  if (wait4(pid, &status, 0, &usage) < 0) {
    perror("wait4");
    return 2;
  }
  fprintf(stderr, "peak_rss_kb=%ld\n", usage.ru_maxrss);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 2;
}
