/* C stubs for the Poller epoll backend, vectored writes, and the
   fd-limit helper the load harness needs to open 10^4 real sockets.

   epoll is Linux-only and guarded at compile time; Poller detects it at
   runtime via tre_epoll_available and falls back to select elsewhere.
   writev is plain POSIX, so vectored sends work on either backend. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <string.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#ifndef _WIN32
#include <unistd.h>
#include <limits.h>
#include <sys/uio.h>
#include <sys/resource.h>
#endif

/* Events bitmask shared with poller.ml: bit 0 = read, bit 1 = write. */
#define TRE_POLL_IN 1
#define TRE_POLL_OUT 2

/* Ops shared with poller.ml: 0 = add, 1 = mod, 2 = del. */

CAMLprim value tre_epoll_available(value unit)
{
  (void)unit;
#ifdef __linux__
  return Val_true;
#else
  return Val_false;
#endif
}

#ifdef __linux__

CAMLprim value tre_epoll_create(value unit)
{
  (void)unit;
  int fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd == -1) uerror("epoll_create1", Nothing);
  return Val_int(fd);
}

CAMLprim value tre_epoll_ctl(value vepfd, value vop, value vfd, value vevents)
{
  struct epoll_event ev;
  int op;
  memset(&ev, 0, sizeof(ev));
  ev.data.fd = Int_val(vfd);
  if (Int_val(vevents) & TRE_POLL_IN) ev.events |= EPOLLIN;
  if (Int_val(vevents) & TRE_POLL_OUT) ev.events |= EPOLLOUT;
  switch (Int_val(vop)) {
  case 0: op = EPOLL_CTL_ADD; break;
  case 1: op = EPOLL_CTL_MOD; break;
  default: op = EPOLL_CTL_DEL; break;
  }
  if (epoll_ctl(Int_val(vepfd), op, Int_val(vfd), &ev) == -1)
    uerror("epoll_ctl", Nothing);
  return Val_unit;
}

#define TRE_EPOLL_MAXEVENTS 1024

/* Fill [vfds]/[vrevents] (int arrays of equal length) with the ready
   descriptors and their event masks; returns the count. The wait itself
   runs with the runtime released so other domains keep executing. */
CAMLprim value tre_epoll_wait(value vepfd, value vfds, value vrevents,
                              value vtimeout_ms)
{
  CAMLparam4(vepfd, vfds, vrevents, vtimeout_ms);
  struct epoll_event evs[TRE_EPOLL_MAXEVENTS];
  int cap = Wosize_val(vfds);
  int epfd = Int_val(vepfd);
  int timeout = Int_val(vtimeout_ms);
  int n, i;
  if (cap > TRE_EPOLL_MAXEVENTS) cap = TRE_EPOLL_MAXEVENTS;
  if (cap > (int)Wosize_val(vrevents)) cap = Wosize_val(vrevents);
  caml_release_runtime_system();
  n = epoll_wait(epfd, evs, cap, timeout);
  caml_acquire_runtime_system();
  if (n == -1) {
    if (errno == EINTR) CAMLreturn(Val_int(0));
    uerror("epoll_wait", Nothing);
  }
  for (i = 0; i < n; i++) {
    int m = 0;
    /* Error/hangup surfaces as readability: the next read reports the
       condition and the owner closes the connection. */
    if (evs[i].events & (EPOLLIN | EPOLLPRI | EPOLLHUP | EPOLLRDHUP | EPOLLERR))
      m |= TRE_POLL_IN;
    if (evs[i].events & (EPOLLOUT | EPOLLERR)) m |= TRE_POLL_OUT;
    Field(vfds, i) = Val_long(evs[i].data.fd);
    Field(vrevents, i) = Val_long(m);
  }
  CAMLreturn(Val_int(n));
}

#else /* !__linux__ */

CAMLprim value tre_epoll_create(value unit)
{
  (void)unit;
  caml_failwith("epoll: unavailable on this platform");
}

CAMLprim value tre_epoll_ctl(value a, value b, value c, value d)
{
  (void)a; (void)b; (void)c; (void)d;
  caml_failwith("epoll: unavailable on this platform");
}

CAMLprim value tre_epoll_wait(value a, value b, value c, value d)
{
  (void)a; (void)b; (void)c; (void)d;
  caml_failwith("epoll: unavailable on this platform");
}

#endif /* __linux__ */

#ifndef _WIN32

#ifndef IOV_MAX
#define IOV_MAX 1024
#endif
#define TRE_IOV_CAP 64

/* writev over [count] strings, the first starting at [first_off]: one
   syscall drains a whole bounded output queue. The runtime is NOT
   released — the iovec bases point into the OCaml heap, and a
   nonblocking socket returns without sleeping anyway. */
CAMLprim value tre_writev(value vfd, value vstrs, value vfirst_off,
                          value vcount)
{
  struct iovec iov[TRE_IOV_CAP];
  int count = Int_val(vcount);
  int cap = TRE_IOV_CAP < IOV_MAX ? TRE_IOV_CAP : IOV_MAX;
  ssize_t r;
  int i;
  if (count < 0) count = 0;
  if (count > (int)Wosize_val(vstrs)) count = Wosize_val(vstrs);
  if (count > cap) count = cap;
  for (i = 0; i < count; i++) {
    value s = Field(vstrs, i);
    iov[i].iov_base = (void *)Bytes_val(s);
    iov[i].iov_len = caml_string_length(s);
  }
  if (count > 0) {
    size_t off = Long_val(vfirst_off);
    if (off > iov[0].iov_len) off = iov[0].iov_len;
    iov[0].iov_base = (char *)iov[0].iov_base + off;
    iov[0].iov_len -= off;
  }
  r = writev(Int_val(vfd), iov, count);
  if (r == -1) uerror("writev", Nothing);
  return Val_long(r);
}

CAMLprim value tre_writev_available(value unit)
{
  (void)unit;
  return Val_true;
}

/* Set the soft RLIMIT_NOFILE to [requested], capped at the hard limit.
   With [raise_only] the limit only ever goes up. Returns the soft limit
   in effect afterwards. */
CAMLprim value tre_set_nofile(value vrequested, value vraise_only)
{
  struct rlimit rl;
  rlim_t target = (rlim_t)Long_val(vrequested);
  if (getrlimit(RLIMIT_NOFILE, &rl) == -1) uerror("getrlimit", Nothing);
  if (rl.rlim_max != RLIM_INFINITY && target > rl.rlim_max)
    target = rl.rlim_max;
  if (target > rl.rlim_cur || (target < rl.rlim_cur && !Bool_val(vraise_only))) {
    rl.rlim_cur = target;
    if (setrlimit(RLIMIT_NOFILE, &rl) == -1) uerror("setrlimit", Nothing);
  }
  if (getrlimit(RLIMIT_NOFILE, &rl) == -1) uerror("getrlimit", Nothing);
  return Val_long(rl.rlim_cur > (rlim_t)Max_long ? Max_long : (long)rl.rlim_cur);
}

#else /* _WIN32 */

CAMLprim value tre_writev(value a, value b, value c, value d)
{
  (void)a; (void)b; (void)c; (void)d;
  caml_failwith("writev: unavailable on this platform");
}

CAMLprim value tre_writev_available(value unit)
{
  (void)unit;
  return Val_false;
}

CAMLprim value tre_set_nofile(value vrequested, value vraise_only)
{
  (void)vraise_only;
  return vrequested;
}

#endif /* !_WIN32 */
