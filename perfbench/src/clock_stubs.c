/* Monotonic nanosecond clock for the benchmark. CLOCK_MONOTONIC never
   steps backwards and resolves far below a microsecond on Linux, unlike
   the wall clock the library's telemetry defaults to. */
#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}
