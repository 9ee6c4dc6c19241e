/* CPU affinity for the benchmark process (see Proc.pin_to_one_cpu). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Restrict the calling thread, and every thread and process it starts
   afterwards, to the lowest-numbered CPU it may run on now.  Returns
   that CPU, or -1 if the affinity could not be read or set. */
value bench_pin_first_cpu(value unit)
{
  cpu_set_t allowed, one;
  int cpu;
  (void)unit;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_int(-1);
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return Val_int(sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1);
    }
  }
  return Val_int(-1);
}
