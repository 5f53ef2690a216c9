/* Transparent-huge-page advice for Bcc_kern.Buf's large fill targets
 * (see Buf.int_create_uninit and docs/PERFORMANCE.md).  The buffer's
 * memory still comes from Bigarray.Array1.create (malloc, which maps
 * buffers this large with mmap) and is still freed by it; this only
 * tells the kernel that the page-aligned interior of the buffer is worth
 * backing with huge pages, so that its first touch faults 2 MB at a time
 * instead of 4 KB.  Advice only: an error is ignored, the call is a no-op
 * where madvise or MADV_HUGEPAGE does not exist, and no buffer byte
 * changes.  No OCaml allocation happens here, which is what lets the
 * external be declared [@@noalloc].
 */
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#endif

CAMLprim value bcc_buf_advise_hugepages(value ba)
{
#if defined(MADV_HUGEPAGE)
  uintptr_t start = (uintptr_t)Caml_ba_data_val(ba);
  uintptr_t end = start + caml_ba_byte_size(Caml_ba_array_val(ba));
  long page = sysconf(_SC_PAGESIZE);
  if (page > 0) {
    uintptr_t mask = (uintptr_t)page - 1;
    uintptr_t lo = (start + mask) & ~mask;
    uintptr_t hi = end & ~mask;
    if (hi > lo) (void)madvise((void *)lo, hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)ba;
#endif
  return Val_unit;
}
