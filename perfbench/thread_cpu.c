/* CPU time of the calling thread.  Unlike the wall clock it leaves out
   the time a virtual machine's host steals from it. */

#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

double perfbench_thread_cpu(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

value perfbench_thread_cpu_byte(value unit)
{
  return caml_copy_double(perfbench_thread_cpu(unit));
}
