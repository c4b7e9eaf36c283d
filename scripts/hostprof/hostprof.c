/* hostprof: a sampling profiler in an LD_PRELOAD shim, for a sandbox with a
 * C compiler and addr2line but no perf. The constructor arms ITIMER_PROF;
 * each SIGPROF records the interrupted thread's stack with glibc backtrace()
 * into a static table; the destructor writes /proc/self/maps and the raw
 * stacks to $HOSTPROF_OUT, which report.py turns into a tree. The timer asks
 * for 1 ms; a kernel built with a 250 Hz tick delivers every 4 ms of CPU
 * time, so expect about 250 samples per busy second. Each sample also
 * records the process's peak resident set so far (getrusage's ru_maxrss, in
 * KB), so report.py --peak can charge every rise of the high-water mark to
 * the stack it was sampled with. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>

#define MAX_SAMPLES 65536 /* 4 ms apart: more than four minutes of CPU */
#define MAX_DEPTH 64

static void *stacks[MAX_SAMPLES][MAX_DEPTH]; /* untouched pages cost nothing */
static int depths[MAX_SAMPLES];
static long maxrss[MAX_SAMPLES]; /* KB, the high-water mark at each sample */
static long start_maxrss;        /* KB, at the constructor */
static volatile int samples;
/* Where memcpy and memmove really run: the symbols are IFUNCs, and their
 * implementations are local to libc, which ships without a symbol table. */
static void *copy_impl[2];

static void on_prof(int sig) {
    int saved = errno, i = samples;
    struct rusage ru;
    (void)sig;
    if (i < MAX_SAMPLES) {
        depths[i] = backtrace(stacks[i], MAX_DEPTH);
        maxrss[i] = getrusage(RUSAGE_SELF, &ru) == 0 ? ru.ru_maxrss : 0;
        samples = i + 1;
    }
    errno = saved;
}

static void set_timer(long usec) {
    struct itimerval tv = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((constructor)) static void hostprof_start(void) {
    void *warm[4];
    struct sigaction sa;
    struct rusage ru;
    if (!getenv("HOSTPROF_OUT"))
        return;
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        start_maxrss = ru.ru_maxrss;
    unsetenv("LD_PRELOAD");  /* profile this process, not what it spawns */
    backtrace(warm, 4);      /* loads the unwinder now: it mallocs, a handler must not */
    copy_impl[0] = dlsym(RTLD_DEFAULT, "memcpy");
    copy_impl[1] = dlsym(RTLD_DEFAULT, "memmove");
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    set_timer(1000);
}

__attribute__((destructor)) static void hostprof_stop(void) {
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out, *maps;
    char line[4096];
    int i, j;
    set_timer(0);
    if (!path || !(out = fopen(path, "w")))
        return;
    if ((maps = fopen("/proc/self/maps", "r"))) {
        while (fgets(line, sizeof line, maps))
            fprintf(out, "M %s", line);
        fclose(maps);
    }
    fprintf(out, "C %p %p\n", copy_impl[0], copy_impl[1]);
    fprintf(out, "R %ld\n", start_maxrss);
    for (i = 0; i < samples; i++) {
        fprintf(out, "S %ld", maxrss[i]);
        for (j = 0; j < depths[i]; j++)
            fprintf(out, " %p", stacks[i][j]);
        fputc('\n', out);
    }
    fclose(out);
}
