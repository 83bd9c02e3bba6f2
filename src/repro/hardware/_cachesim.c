/* Native hardware automata and charging operations: the one charging path.
 *
 * Ownership rule: everything a charged operation reads, changes or counts
 * has exactly one owner, decided once, when the Python object is
 * constructed.  ``repro.hardware.cache.Cache``, ``tlb.TLB`` and
 * ``branch.BranchPredictor`` each hold one of the state objects defined here
 * and delegate every method to it; there is no Python automaton beside them
 * in ``src/``.  A charged operation (``Segment.visit``, ``Context.workspace``,
 * ``Context.pipeline``, ``Machine.charged_strided`` / ``charged_fields`` /
 * ``charged_addresses`` / ``fetch_run`` / ``conjunct``) touches no Python
 * object beyond parsing its arguments and building its return value, except
 * for the interrupt-handler callback described below.
 *
 *   CacheState   int64 tags[num_sets * assoc], MRU first within a set; one
 *                dirty byte per way; a fill count per set; an owned
 *                reference to the next level's CacheState; its statistics
 *                (per-port accesses and misses, write-backs, invalidations).
 *   TLBState     an MRU-ordered page array of ``entries`` slots; accesses
 *                and misses.
 *   BTBState     per way a tag, a history register and 1 << history_bits
 *                two-bit counters; per set an MRU-ordered array of way
 *                slots; the predictor's five statistics.
 *   Machine      one processor's six automata, its user-mode event-counter
 *                bank (a ``long`` per event of ``EVENTS``), the two
 *                front-end scalars every fetch advances and the
 *                OS-interference clock; the processor is only borrowed.
 *   Context      one ExecutionContext's visit constants and bookkeeping
 *                (visit counter, cursors, carry, the state of the
 *                alternating / rare branch sites) over a Machine.
 *   Segment      one code segment's visit constants, its invocation count
 *                and its ``visit`` entry point over a Context.
 *
 * ``Context.pipeline`` charges one page of a tuple pipeline -- the scan's
 * per-record Volcano sequence and its consumer's per-row charges -- from a
 * program of steps and the page's record keys, outcomes and per-row
 * operands, in one call.
 *
 * Python reads and writes through: a wrapper's ``stats`` is a view of the
 * members below, ``EventCounters.user`` a view of the Machine's bank
 * (``counter`` / ``set_counter`` / ``counters`` / ``add``), and the scalars
 * (the front-end stall float and page, the OS clock, the context's cursors)
 * are struct members read and written in place.  Events are counted where
 * they happen, so there is nothing to fold when an operation ends and
 * nothing to discard when the interrupt handler -- the one call back into
 * Python, made only on a visit in which an interrupt fires -- raises.
 *
 * Why nothing dangles: a level owns its next level, a Machine its six
 * states, a Context its Machine and a Segment its Context, so the arrays
 * live as long as anything can reach them and are freed in ``tp_dealloc``.
 * No cycle exists: nothing here refers to a Python wrapper, and the one back
 * reference (Machine -> processor, for the interrupt handler) is borrowed
 * from the object that owns the Machine.
 *
 * The oracle is the reference machine under ``tests/`` (``reference_machine.py``):
 * the same types, methods and members written as plain Python loops, which
 * the test suite alone swaps in.  Every transition here must leave every
 * count and every piece of state where that module leaves it;
 * ``snapshot()`` and the statistics are the surface the differential tests
 * compare.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#ifndef CACHESIM_SOURCE_HASH
#define CACHESIM_SOURCE_HASH "dev"
#endif

#define PORT_DATA_READ 0
#define PORT_DATA_WRITE 1
#define PORT_INSTRUCTION 2
#define HASH_CONSTANT 2654435761UL

/* The event vocabulary (``counters.EVENT_NAMES``, in that order; exported as
 * ``EVENT_NAMES`` so the two lists can be compared). */
#define EVENTS(X)                                                          \
    X(CPU_CLK_UNHALTED) X(INST_RETIRED) X(UOPS_RETIRED) X(INST_DECODED)    \
    X(DATA_MEM_REFS) X(DCU_LINES_IN) X(IFU_IFETCH) X(IFU_IFETCH_MISS)      \
    X(IFU_MEM_STALL) X(ILD_STALL) X(L2_RQSTS) X(L2_DATA_RQSTS)             \
    X(L2_IFETCH) X(L2_LINES_IN) X(L2_DATA_MISS) X(L2_IFETCH_MISS)          \
    X(ITLB_MISS) X(DTLB_MISS) X(BR_INST_RETIRED) X(BR_TAKEN_RETIRED)       \
    X(BR_MISS_PRED_RETIRED) X(BTB_MISSES) X(RESOURCE_STALLS)               \
    X(PARTIAL_RAT_STALLS) X(FU_CONTENTION_STALLS) X(BUS_TRAN_MEM)          \
    X(BUS_DRDY_CLOCKS) X(MEMORY_LATENCY_CYCLES) X(OS_INTERRUPTS)           \
    X(RECORDS_PROCESSED)

#define X(name) EV_##name,
enum { EVENTS(X) N_EVENTS };
#undef X
#define X(name) #name,
static const char *const event_names[N_EVENTS] = { EVENTS(X) };
#undef X
_Static_assert(N_EVENTS <= 64, "Machine.assigned holds one bit per event");

static PyObject *event_index;  /* interned event name -> bank index */
static PyObject *event_key[N_EVENTS];  /* the names, interned */
static PyObject *s_service_interrupts;

/* Method-table cast through ``void (*)(void)``: the functions below take
 * their own object type as ``self`` (quiet under -Wcast-function-type). */
#define METHOD(function) ((PyCFunction)(void (*)(void))(function))
/* A struct member Python reads and writes under the member's own name. */
#define MEMBER(type, name, kind, doc) {#name, kind, offsetof(type, name), 0, doc}

/* ------------------------------------------------------ argument helpers */

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                 name, expected, nargs);
    return -1;
}

/* The constructors take positional arguments only. */
static int
check_no_keywords(const char *name, PyObject *kwargs)
{
    if (kwargs == NULL || !PyDict_GET_SIZE(kwargs))
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes no keyword arguments", name);
    return -1;
}

/* Positive, and small enough that ``count * assoc`` array sizes cannot
 * overflow. */
static int
check_geometry(const char *what, long value, long limit)
{
    if (value >= 1 && value <= limit)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s must be between 1 and %ld, got %ld",
                 what, limit, value);
    return -1;
}

/* ======================================================================= */
/* Cache level                                                              */
/* ======================================================================= */

typedef struct CacheState {
    PyObject_HEAD
    int64_t *tags;    /* num_sets * assoc line numbers, MRU first per set */
    uint8_t *dirty;   /* parallel to tags */
    int32_t *fill;    /* resident ways per set */
    long num_sets, set_mask, assoc, line_shift;
    int write_back;
    struct CacheState *next;  /* owned; NULL on the last level */
    /* Cumulative statistics, per port as ``CacheStats`` keeps them; counted
     * exactly where the Python code increments ``stats``. */
    long accesses[3], misses[3], writebacks, invalidations;
} CacheState;

static PyTypeObject CacheStateType;

/* Insert ``line`` at the MRU position of a set holding ``n`` ways. */
static inline void
set_insert_front(int64_t *tags, uint8_t *dirty, long n, int64_t line)
{
    memmove(tags + 1, tags, (size_t)n * sizeof(int64_t));
    memmove(dirty + 1, dirty, (size_t)n);
    tags[0] = line;
    dirty[0] = 0;
}

/* Probe a set; a hit moves the way to the MRU position (its dirty bit
 * travels with it).  Returns 1 on a hit. */
static inline int
set_probe(int64_t *tags, uint8_t *dirty, long n, int64_t line)
{
    if (n && tags[0] == line)
        return 1;
    for (long i = 1; i < n; i++) {
        if (tags[i] == line) {
            uint8_t was_dirty = dirty[i];
            set_insert_front(tags, dirty, i, line);
            dirty[0] = was_dirty;
            return 1;
        }
    }
    return 0;
}

/* ``Cache._access_line``: one line touch -- probe; on a miss the
 * next-level fill request, victim selection, write-back bookkeeping and
 * fill.  Returns 1 on a miss at this level. */
static int
cache_access_line(CacheState *c, int64_t line, int port, int write)
{
    c->accesses[port]++;
    long set_index = (long)(line & c->set_mask);
    int64_t *tags = c->tags + set_index * c->assoc;
    uint8_t *dirty = c->dirty + set_index * c->assoc;
    long n = c->fill[set_index];
    if (set_probe(tags, dirty, n, line)) {
        if (write)
            dirty[0] = 1;
        return 0;
    }
    c->misses[port]++;
    CacheState *next = c->next;
    if (next != NULL)
        /* Fill request: a read regardless of the original direction
         * (write-allocate); instruction fills keep the instruction port. */
        cache_access_line(next, line,
                          port == PORT_INSTRUCTION ? PORT_INSTRUCTION
                                                   : PORT_DATA_READ, 0);
    if (n >= c->assoc) {
        n--;
        if (dirty[n]) {
            c->writebacks++;
            if (next != NULL)  /* the write-back installs the line there */
                cache_access_line(next, tags[n], PORT_DATA_WRITE, 1);
        }
    }
    set_insert_front(tags, dirty, n, line);
    c->fill[set_index] = (int32_t)(n + 1);
    if (write) {
        if (c->write_back)
            dirty[0] = 1;
        else if (next != NULL)  /* write-through: forwarded as traffic */
            cache_access_line(next, line, PORT_DATA_WRITE, 1);
    }
    return 1;
}

/* ``count`` elements of ``size`` bytes, ``stride`` apart, every line each
 * element spans, in ascending order (``Cache.access_strided``); returns this
 * level's misses. */
static long
cache_strided(CacheState *c, long addr, long stride, long count, long size,
              int port, int write)
{
    long span = (size > 1 ? size : 1) - 1;
    long shift = c->line_shift;
    long element = addr;
    long before = c->misses[port];
    for (long k = 0; k < count; k++) {
        long last = (element + span) >> shift;
        for (long line = element >> shift; line <= last; line++)
            cache_access_line(c, line, port, write);
        element += stride;
    }
    return c->misses[port] - before;
}

static int
port_arg(PyObject *obj)
{
    long port = PyLong_AsLong(obj);
    if (port == -1 && PyErr_Occurred())
        return -1;
    if (port < 0 || port > 2) {
        PyErr_SetString(PyExc_IndexError, "cache port out of range");
        return -1;
    }
    return (int)port;
}

/* CacheState(num_sets, assoc, line_shift, write_back, next_or_None) */
static PyObject *
CacheState_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    long num_sets, assoc, line_shift;
    int write_back;
    PyObject *next_obj;
    if (check_no_keywords("CacheState", kwargs) < 0
            || !PyArg_ParseTuple(args, "lllpO", &num_sets, &assoc, &line_shift,
                                 &write_back, &next_obj))
        return NULL;
    if (check_geometry("num_sets", num_sets, 1L << 28) < 0
            || check_geometry("associativity", assoc, 1L << 16) < 0)
        return NULL;
    if (num_sets & (num_sets - 1)) {
        PyErr_SetString(PyExc_ValueError, "num_sets must be a power of two");
        return NULL;
    }
    if (line_shift < 0 || line_shift > 62) {
        PyErr_SetString(PyExc_ValueError, "line_shift out of range");
        return NULL;
    }
    if (next_obj != Py_None && Py_TYPE(next_obj) != &CacheStateType) {
        PyErr_SetString(PyExc_TypeError,
                        "next level must be a CacheState or None");
        return NULL;
    }
    CacheState *c = (CacheState *)type->tp_alloc(type, 0);
    if (c == NULL)
        return NULL;
    size_t ways = (size_t)num_sets * (size_t)assoc;
    c->tags = PyMem_Calloc(ways, sizeof(int64_t));
    c->dirty = PyMem_Calloc(ways, 1);
    c->fill = PyMem_Calloc((size_t)num_sets, sizeof(int32_t));
    if (c->tags == NULL || c->dirty == NULL || c->fill == NULL) {
        Py_DECREF(c);
        return PyErr_NoMemory();
    }
    c->num_sets = num_sets;
    c->set_mask = num_sets - 1;
    c->assoc = assoc;
    c->line_shift = line_shift;
    c->write_back = write_back;
    if (next_obj != Py_None) {
        Py_INCREF(next_obj);
        c->next = (CacheState *)next_obj;
    }
    return (PyObject *)c;
}

static void
CacheState_dealloc(PyObject *self)
{
    CacheState *c = (CacheState *)self;
    PyMem_Free(c->tags);
    PyMem_Free(c->dirty);
    PyMem_Free(c->fill);
    Py_XDECREF(c->next);
    Py_TYPE(self)->tp_free(self);
}

/* strided(addr, stride, count, size, port, write) -> misses */
static PyObject *
CacheState_strided(CacheState *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("strided", nargs, 6) < 0)
        return NULL;
    long addr = PyLong_AsLong(args[0]);
    long stride = PyLong_AsLong(args[1]);
    long count = PyLong_AsLong(args[2]);
    long size = PyLong_AsLong(args[3]);
    if (PyErr_Occurred())
        return NULL;
    int port = port_arg(args[4]);
    int write = PyObject_IsTrue(args[5]);
    if (port < 0 || write < 0)
        return NULL;
    return PyLong_FromLong(cache_strided(c, addr, stride, count, size, port,
                                         write));
}

/* lines(start_addr, step, count, port, write) -> misses
 * -- ``count`` line touches at byte addresses ``start + k * step``. */
static PyObject *
CacheState_lines(CacheState *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("lines", nargs, 5) < 0)
        return NULL;
    long addr = PyLong_AsLong(args[0]);
    long step = PyLong_AsLong(args[1]);
    long count = PyLong_AsLong(args[2]);
    if (PyErr_Occurred())
        return NULL;
    int port = port_arg(args[3]);
    int write = PyObject_IsTrue(args[4]);
    if (port < 0 || write < 0)
        return NULL;
    long misses = 0;
    for (long k = 0; k < count; k++) {
        misses += cache_access_line(c, addr >> c->line_shift, port, write);
        addr += step;
    }
    return PyLong_FromLong(misses);
}

static PyObject *
CacheState_contains(CacheState *c, PyObject *arg)
{
    long addr = PyLong_AsLong(arg);
    if (addr == -1 && PyErr_Occurred())
        return NULL;
    int64_t line = addr >> c->line_shift;
    long set_index = (long)(line & c->set_mask);
    const int64_t *tags = c->tags + set_index * c->assoc;
    for (long i = 0; i < c->fill[set_index]; i++) {
        if (tags[i] == line)
            Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

static long
cache_resident(const CacheState *c)
{
    long total = 0;
    for (long s = 0; s < c->num_sets; s++)
        total += c->fill[s];
    return total;
}

static PyObject *
CacheState_resident_lines(CacheState *c, PyObject *ignored)
{
    (void)ignored;
    return PyLong_FromLong(cache_resident(c));
}

static long
cache_invalidate_all(CacheState *c)
{
    long dropped = cache_resident(c);
    memset(c->fill, 0, (size_t)c->num_sets * sizeof(int32_t));
    c->invalidations += dropped;
    return dropped;
}

static PyObject *
CacheState_invalidate_all(CacheState *c, PyObject *ignored)
{
    (void)ignored;
    return PyLong_FromLong(cache_invalidate_all(c));
}

/* ``Cache.invalidate_fraction``: per set keep the
 * ``int(round(n * (1.0 - fraction)))`` most recently used lines.  Python's
 * ``round`` is half-to-even, which is ``nearbyint`` under the default
 * rounding mode -- never ``lround`` or ``+ 0.5`` truncation (a 1-line set
 * at fraction 0.5 keeps 0, a 3-line set keeps 2). */
static PyObject *
CacheState_invalidate_fraction(CacheState *c, PyObject *arg)
{
    double fraction = PyFloat_AsDouble(arg);
    if (fraction == -1.0 && PyErr_Occurred())
        return NULL;
    if (isnan(fraction)) {
        PyErr_SetString(PyExc_ValueError, "cannot convert float NaN to integer");
        return NULL;
    }
    if (fraction <= 0.0)
        return PyLong_FromLong(0);
    if (fraction >= 1.0)
        return PyLong_FromLong(cache_invalidate_all(c));
    long dropped = 0;
    for (long s = 0; s < c->num_sets; s++) {
        long n = c->fill[s];
        if (!n)
            continue;
        long keep = (long)nearbyint((double)n * (1.0 - fraction));
        dropped += n - keep;
        c->fill[s] = (int32_t)keep;  /* the victims' dirty bits go with them */
    }
    c->invalidations += dropped;
    return PyLong_FromLong(dropped);
}

/* snapshot() -> (sets, dirty): per set the MRU-ordered line list and the
 * set of dirty lines -- the shape the Python automaton keeps. */
static PyObject *
CacheState_snapshot(CacheState *c, PyObject *ignored)
{
    (void)ignored;
    PyObject *sets = PyList_New(c->num_sets);
    PyObject *dirty_sets = PyList_New(c->num_sets);
    if (sets == NULL || dirty_sets == NULL)
        goto fail;
    for (long s = 0; s < c->num_sets; s++) {
        long n = c->fill[s];
        PyObject *ways = PyList_New(n);
        PyObject *dirty = PySet_New(NULL);
        if (ways != NULL)
            PyList_SET_ITEM(sets, s, ways);
        if (dirty != NULL)
            PyList_SET_ITEM(dirty_sets, s, dirty);
        if (ways == NULL || dirty == NULL)
            goto fail;
        for (long i = 0; i < n; i++) {
            PyObject *line = PyLong_FromLongLong(c->tags[s * c->assoc + i]);
            if (line == NULL)
                goto fail;
            PyList_SET_ITEM(ways, i, line);
            if (c->dirty[s * c->assoc + i] && PySet_Add(dirty, line) < 0)
                goto fail;
        }
    }
    return Py_BuildValue("(NN)", sets, dirty_sets);
fail:
    Py_XDECREF(sets);
    Py_XDECREF(dirty_sets);
    return NULL;
}

static PyMethodDef CacheState_methods[] = {
    {"strided", METHOD(CacheState_strided), METH_FASTCALL,
     "Bulk strided access; returns this level's misses."},
    {"lines", METHOD(CacheState_lines), METH_FASTCALL,
     "Bulk line-run access; returns this level's misses."},
    {"contains", METHOD(CacheState_contains), METH_O,
     "True when the line holding the address is resident."},
    {"resident_lines", METHOD(CacheState_resident_lines), METH_NOARGS,
     "Number of resident lines."},
    {"invalidate_all", METHOD(CacheState_invalidate_all), METH_NOARGS,
     "Drop every line; counts and returns how many."},
    {"invalidate_fraction", METHOD(CacheState_invalidate_fraction), METH_O,
     "Drop the LRU share of every set; counts and returns how many lines."},
    {"snapshot", METHOD(CacheState_snapshot), METH_NOARGS,
     "(MRU-ordered line lists, dirty sets), one entry per set."},
    {NULL, NULL, 0, NULL},
};

/* The per-port statistics (``accesses`` / ``misses``) read as a 3-tuple --
 * an item assignment into it raises instead of being lost -- and are
 * assigned as any sequence of three; ``closure`` is the array's offset. */
static PyObject *
CacheState_get_ports(CacheState *c, void *closure)
{
    const long *ports = (const long *)((char *)c + (size_t)closure);
    return Py_BuildValue("(lll)", ports[0], ports[1], ports[2]);
}

static int
CacheState_set_ports(CacheState *c, PyObject *value, void *closure)
{
    long ports[3];
    if (value == NULL) {
        PyErr_SetString(PyExc_TypeError, "statistics cannot be deleted");
        return -1;
    }
    PyObject *triple = PySequence_Tuple(value);
    int ok = triple != NULL && PyArg_ParseTuple(
        triple, "lll;per-port statistics are three integers",
        &ports[0], &ports[1], &ports[2]);
    Py_XDECREF(triple);
    if (ok)
        memcpy((char *)c + (size_t)closure, ports, sizeof(ports));
    return ok ? 0 : -1;
}

static PyGetSetDef CacheState_getset[] = {
    {"accesses", (getter)CacheState_get_ports, (setter)CacheState_set_ports,
     "Accesses per port.", (void *)offsetof(CacheState, accesses)},
    {"misses", (getter)CacheState_get_ports, (setter)CacheState_set_ports,
     "Misses per port.", (void *)offsetof(CacheState, misses)},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CacheState_members[] = {
    MEMBER(CacheState, writebacks, T_LONG, "Dirty victims written back."),
    MEMBER(CacheState, invalidations, T_LONG, "Lines dropped by invalidation."),
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CacheStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.CacheState",
    .tp_basicsize = sizeof(CacheState),
    .tp_dealloc = CacheState_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Flat-array state and statistics of one set-associative LRU cache level.",
    .tp_methods = CacheState_methods,
    .tp_members = CacheState_members,
    .tp_getset = CacheState_getset,
    .tp_new = CacheState_new,
};

/* ======================================================================= */
/* TLB                                                                      */
/* ======================================================================= */

typedef struct {
    PyObject_HEAD
    int64_t *pages;  /* MRU first */
    long fill, capacity, page_shift;
    long accesses, misses;  /* cumulative statistics (``TLBStats``) */
} TLBState;

static PyTypeObject TLBStateType;

/* ``TLB.access_bulk``: ``count`` same-page accesses are ``count``
 * consultations, one transition and at most one miss; returns 1 on a miss. */
static inline int
tlb_access(TLBState *t, int64_t page, long count)
{
    t->accesses += count;
    int64_t *pages = t->pages;
    long n = t->fill;
    if (n && pages[0] == page)
        return 0;
    for (long i = 1; i < n; i++) {
        if (pages[i] == page) {
            memmove(pages + 1, pages, (size_t)i * sizeof(int64_t));
            pages[0] = page;
            return 0;
        }
    }
    if (n < t->capacity)
        t->fill = ++n;  /* else the LRU entry falls off the end */
    memmove(pages + 1, pages, (size_t)(n - 1) * sizeof(int64_t));
    pages[0] = page;
    t->misses++;
    return 1;
}

/* TLBState(entries, page_shift) */
static PyObject *
TLBState_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    long entries, page_shift;
    if (check_no_keywords("TLBState", kwargs) < 0
            || !PyArg_ParseTuple(args, "ll", &entries, &page_shift))
        return NULL;
    if (check_geometry("entries", entries, 1L << 24) < 0)
        return NULL;
    if (page_shift < 0 || page_shift > 62) {
        PyErr_SetString(PyExc_ValueError, "page_shift out of range");
        return NULL;
    }
    TLBState *t = (TLBState *)type->tp_alloc(type, 0);
    if (t == NULL)
        return NULL;
    t->pages = PyMem_Calloc((size_t)entries, sizeof(int64_t));
    if (t->pages == NULL) {
        Py_DECREF(t);
        return PyErr_NoMemory();
    }
    t->capacity = entries;
    t->page_shift = page_shift;
    return (PyObject *)t;
}

static void
TLBState_dealloc(PyObject *self)
{
    TLBState *t = (TLBState *)self;
    PyMem_Free(t->pages);
    Py_TYPE(self)->tp_free(self);
}

/* access(addr, count) -> 1 on a miss, 0 on a hit (``count`` >= 1) */
static PyObject *
TLBState_access(TLBState *t, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("access", nargs, 2) < 0)
        return NULL;
    long addr = PyLong_AsLong(args[0]);
    long count = PyLong_AsLong(args[1]);
    if (PyErr_Occurred())
        return NULL;
    return PyLong_FromLong(tlb_access(t, addr >> t->page_shift, count));
}

static PyObject *
TLBState_contains(TLBState *t, PyObject *arg)
{
    long addr = PyLong_AsLong(arg);
    if (addr == -1 && PyErr_Occurred())
        return NULL;
    int64_t page = addr >> t->page_shift;
    for (long i = 0; i < t->fill; i++) {
        if (t->pages[i] == page)
            Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

static PyObject *
TLBState_resident_pages(TLBState *t, PyObject *ignored)
{
    (void)ignored;
    return PyLong_FromLong(t->fill);
}

static PyObject *
TLBState_flush(TLBState *t, PyObject *ignored)
{
    (void)ignored;
    long dropped = t->fill;
    t->fill = 0;
    return PyLong_FromLong(dropped);
}

/* snapshot() -> resident pages, least recently used first (the iteration
 * order of the Python automaton's OrderedDict). */
static PyObject *
TLBState_snapshot(TLBState *t, PyObject *ignored)
{
    (void)ignored;
    PyObject *pages = PyList_New(t->fill);
    if (pages == NULL)
        return NULL;
    for (long i = 0; i < t->fill; i++) {
        PyObject *page = PyLong_FromLongLong(t->pages[t->fill - 1 - i]);
        if (page == NULL) {
            Py_DECREF(pages);
            return NULL;
        }
        PyList_SET_ITEM(pages, i, page);
    }
    return pages;
}

static PyMethodDef TLBState_methods[] = {
    {"access", METHOD(TLBState_access), METH_FASTCALL,
     "Translate `count` same-page accesses; returns 1 on a miss."},
    {"contains", METHOD(TLBState_contains), METH_O,
     "True when the page holding the address is resident."},
    {"resident_pages", METHOD(TLBState_resident_pages), METH_NOARGS,
     "Number of resident translations."},
    {"flush", METHOD(TLBState_flush), METH_NOARGS,
     "Drop every translation; returns how many."},
    {"snapshot", METHOD(TLBState_snapshot), METH_NOARGS,
     "Resident pages, least recently used first."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef TLBState_members[] = {
    MEMBER(TLBState, accesses, T_LONG, "Consultations."),
    MEMBER(TLBState, misses, T_LONG, "Misses."),
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject TLBStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.TLBState",
    .tp_basicsize = sizeof(TLBState),
    .tp_dealloc = TLBState_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "MRU-ordered page array and statistics of one fully associative LRU TLB.",
    .tp_methods = TLBState_methods,
    .tp_members = TLBState_members,
    .tp_new = TLBState_new,
};

/* ======================================================================= */
/* Branch target buffer                                                     */
/* ======================================================================= */

typedef struct {
    PyObject_HEAD
    int64_t *tags;      /* per way slot */
    int32_t *history;   /* per way slot */
    uint8_t *counters;  /* per way slot, 1 << history_bits two-bit counters */
    int32_t *order;     /* per set: way slots (0..assoc-1), MRU first */
    int32_t *fill;      /* per set: resident ways; they occupy slots 0..fill-1 */
    long num_sets, set_mask, assoc, history_bits, history_mask;
    int static_backward;
    /* Cumulative statistics (``BranchStats``). */
    long branches, taken, mispredictions, btb_hits, btb_misses;
} BTBState;

static PyTypeObject BTBStateType;

/* ``_BTBEntry.update``: saturate the two-bit counter, shift the history. */
static inline void
btb_update(BTBState *b, long slot, int taken)
{
    uint8_t *counter = b->counters + (slot << b->history_bits) + b->history[slot];
    if (taken) {
        if (*counter < 3)
            (*counter)++;
    }
    else if (*counter > 0) {
        (*counter)--;
    }
    b->history[slot] = (int32_t)(((b->history[slot] << 1) | taken)
                                 & b->history_mask);
}

/* ``BranchPredictor.execute``; returns 1 when mispredicted. */
static int
btb_execute(BTBState *b, long site_addr, int taken, int backward)
{
    b->branches++;
    b->taken += taken;
    int64_t site = site_addr >> 4;
    long set_index = (long)(site & b->set_mask);
    int32_t *order = b->order + set_index * b->assoc;
    long base = set_index * b->assoc;
    long n = b->fill[set_index];
    int prediction;
    long i = 0;
    while (i < n && b->tags[base + order[i]] != site)
        i++;
    if (i < n) {
        b->btb_hits++;
        int32_t way = order[i];
        long slot = base + way;
        prediction = b->counters[(slot << b->history_bits)
                                 + b->history[slot]] >= 2;
        memmove(order + 1, order, (size_t)i * sizeof(int32_t));
        order[0] = way;
        btb_update(b, slot, taken);
    }
    else {
        b->btb_misses++;
        prediction = b->static_backward ? backward : 0;
        if (taken) {
            /* Only taken branches allocate; a full set recycles its LRU
             * way's slot. */
            int32_t way;
            if (n < b->assoc) {
                way = (int32_t)n;
                b->fill[set_index] = (int32_t)++n;
            }
            else {
                way = order[n - 1];
            }
            memmove(order + 1, order, (size_t)(n - 1) * sizeof(int32_t));
            order[0] = way;
            long slot = base + way;
            b->tags[slot] = site;
            b->history[slot] = 0;
            memset(b->counters + (slot << b->history_bits), 2,
                   (size_t)1 << b->history_bits);  /* weakly taken */
            btb_update(b, slot, taken);
        }
    }
    int mispredicted = prediction != taken;
    b->mispredictions += mispredicted;
    return mispredicted;
}

/* BTBState(num_sets, assoc, history_bits, static_backward_taken) */
static PyObject *
BTBState_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    long num_sets, assoc, history_bits;
    int static_backward;
    if (check_no_keywords("BTBState", kwargs) < 0
            || !PyArg_ParseTuple(args, "lllp", &num_sets, &assoc, &history_bits,
                                 &static_backward))
        return NULL;
    if (check_geometry("num_sets", num_sets, 1L << 24) < 0
            || check_geometry("associativity", assoc, 1L << 12) < 0)
        return NULL;
    if (history_bits < 0 || history_bits > 16) {
        PyErr_SetString(PyExc_ValueError,
                        "history_bits must be between 0 and 16");
        return NULL;
    }
    BTBState *b = (BTBState *)type->tp_alloc(type, 0);
    if (b == NULL)
        return NULL;
    size_t ways = (size_t)num_sets * (size_t)assoc;
    b->tags = PyMem_Calloc(ways, sizeof(int64_t));
    b->history = PyMem_Calloc(ways, sizeof(int32_t));
    b->counters = PyMem_Calloc(ways << history_bits, 1);
    b->order = PyMem_Calloc(ways, sizeof(int32_t));
    b->fill = PyMem_Calloc((size_t)num_sets, sizeof(int32_t));
    if (b->tags == NULL || b->history == NULL || b->counters == NULL
            || b->order == NULL || b->fill == NULL) {
        Py_DECREF(b);
        return PyErr_NoMemory();
    }
    b->num_sets = num_sets;
    b->set_mask = num_sets - 1;
    b->assoc = assoc;
    b->history_bits = history_bits;
    b->history_mask = (1L << history_bits) - 1;
    b->static_backward = static_backward;
    return (PyObject *)b;
}

static void
BTBState_dealloc(PyObject *self)
{
    BTBState *b = (BTBState *)self;
    PyMem_Free(b->tags);
    PyMem_Free(b->history);
    PyMem_Free(b->counters);
    PyMem_Free(b->order);
    PyMem_Free(b->fill);
    Py_TYPE(self)->tp_free(self);
}

/* execute(site_addr, taken, backward) -> True when mispredicted */
static PyObject *
BTBState_execute(BTBState *b, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("execute", nargs, 3) < 0)
        return NULL;
    long site_addr = PyLong_AsLong(args[0]);
    if (site_addr == -1 && PyErr_Occurred())
        return NULL;
    int taken = PyObject_IsTrue(args[1]);
    int backward = PyObject_IsTrue(args[2]);
    if (taken < 0 || backward < 0)
        return NULL;
    return PyBool_FromLong(btb_execute(b, site_addr, taken, backward));
}

static PyObject *
BTBState_resident_entries(BTBState *b, PyObject *ignored)
{
    (void)ignored;
    long total = 0;
    for (long s = 0; s < b->num_sets; s++)
        total += b->fill[s];
    return PyLong_FromLong(total);
}

static PyObject *
BTBState_flush(BTBState *b, PyObject *ignored)
{
    (void)ignored;
    memset(b->fill, 0, (size_t)b->num_sets * sizeof(int32_t));
    Py_RETURN_NONE;
}

/* snapshot() -> per set the MRU-ordered ``(tag, history, counters)`` ways. */
static PyObject *
BTBState_snapshot(BTBState *b, PyObject *ignored)
{
    (void)ignored;
    long table = 1L << b->history_bits;
    PyObject *sets = PyList_New(b->num_sets);
    if (sets == NULL)
        return NULL;
    for (long s = 0; s < b->num_sets; s++) {
        long n = b->fill[s];
        PyObject *ways = PyList_New(n);
        if (ways == NULL)
            goto fail;
        PyList_SET_ITEM(sets, s, ways);
        for (long i = 0; i < n; i++) {
            long slot = s * b->assoc + b->order[s * b->assoc + i];
            PyObject *counters = PyTuple_New(table);
            if (counters == NULL)
                goto fail;
            for (long k = 0; k < table; k++) {
                PyObject *value = PyLong_FromLong(
                    b->counters[(slot << b->history_bits) + k]);
                if (value == NULL) {
                    Py_DECREF(counters);
                    goto fail;
                }
                PyTuple_SET_ITEM(counters, k, value);
            }
            PyObject *way = Py_BuildValue("(LlN)", (long long)b->tags[slot],
                                          (long)b->history[slot], counters);
            if (way == NULL)
                goto fail;
            PyList_SET_ITEM(ways, i, way);
        }
    }
    return sets;
fail:
    Py_DECREF(sets);
    return NULL;
}

static PyMethodDef BTBState_methods[] = {
    {"execute", METHOD(BTBState_execute), METH_FASTCALL,
     "Execute one branch; True when mispredicted."},
    {"resident_entries", METHOD(BTBState_resident_entries), METH_NOARGS,
     "Number of allocated BTB entries."},
    {"flush", METHOD(BTBState_flush), METH_NOARGS,
     "Clear all prediction state."},
    {"snapshot", METHOD(BTBState_snapshot), METH_NOARGS,
     "Per set, MRU first: (tag, history, counters)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef BTBState_members[] = {
    MEMBER(BTBState, branches, T_LONG, NULL),
    MEMBER(BTBState, taken, T_LONG, NULL),
    MEMBER(BTBState, mispredictions, T_LONG, NULL),
    MEMBER(BTBState, btb_hits, T_LONG, NULL),
    MEMBER(BTBState, btb_misses, T_LONG, NULL),
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject BTBStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.BTBState",
    .tp_basicsize = sizeof(BTBState),
    .tp_dealloc = BTBState_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Two-level adaptive predictor state and statistics behind a set-associative BTB.",
    .tp_methods = BTBState_methods,
    .tp_members = BTBState_members,
    .tp_new = BTBState_new,
};

/* ======================================================================= */
/* Machine: one processor's automata, counters, clock and charged operations */
/* ======================================================================= */

typedef struct {
    PyObject_HEAD
    CacheState *l1d, *l1i, *l2;  /* owned */
    TLBState *dtlb, *itlb;       /* owned */
    BTBState *btb;               /* owned */
    double l1i_stall_cost, l2i_stall_cost;
    PyObject *processor;         /* borrowed: the processor owns this object */
    /* The user-mode bank (``EventCounters.user`` is a view of it).  A key is
     * present, as in the dict it stands for, once it was counted: the value
     * is non-zero, or Python assigned it (one ``assigned`` bit per event). */
    long user[N_EVENTS];
    uint64_t assigned;
    /* Front-end scalars (``SimulatedProcessor._l1i_stall_cycles`` /
     * ``_last_instruction_page`` read and write these members). */
    double l1i_stall_cycles;
    long last_instruction_page;
    /* The OS-interference clock (``OSInterference._since_last`` /
     * ``interrupts`` read and write these members); interval 0: no model. */
    long os_interval, os_since_last, os_interrupts;
} Machine;

static PyTypeObject MachineType;

/* ``SimulatedProcessor.fetch_code_run``: ITLB per page transition, one L1I
 * line touch per line, per-run front-end stall accumulation (the stall is
 * added per run with misses: the float-accumulation order of the Python
 * code); returns the L1I misses. */
static long
fetch_run_impl(Machine *m, long line_addr, long count)
{
    if (count <= 0)
        return 0;
    CacheState *l1i = m->l1i;
    TLBState *itlb = m->itlb;
    long line_bytes = 1L << l1i->line_shift;
    long first_page = line_addr >> itlb->page_shift;
    long last_line = line_addr + (count - 1) * line_bytes;
    long miss_before = l1i->misses[PORT_INSTRUCTION];
    long fill_before = m->l2->misses[PORT_INSTRUCTION];
    if (first_page != m->last_instruction_page)
        m->user[EV_ITLB_MISS] += tlb_access(itlb, first_page, 1);
    long end_page = last_line >> itlb->page_shift;
    for (long page = first_page + 1; page <= end_page; page++)
        m->user[EV_ITLB_MISS] += tlb_access(itlb, page, 1);
    m->last_instruction_page = end_page;
    for (long k = 0; k < count; k++)
        cache_access_line(l1i, (line_addr + k * line_bytes) >> l1i->line_shift,
                          PORT_INSTRUCTION, 0);
    m->user[EV_IFU_IFETCH] += count;
    long l1i_run = l1i->misses[PORT_INSTRUCTION] - miss_before;
    if (l1i_run) {
        long l2i_run = m->l2->misses[PORT_INSTRUCTION] - fill_before;
        m->l1i_stall_cycles += (double)l1i_run * m->l1i_stall_cost
                               + (double)l2i_run * m->l2i_stall_cost;
        m->user[EV_IFU_IFETCH_MISS] += l1i_run;
        m->user[EV_L2_IFETCH] += l1i_run;
        m->user[EV_L2_IFETCH_MISS] += l2i_run;
    }
    return l1i_run;
}

/* ``data_read_strided``/``data_write_strided`` body: DTLB once per page-run
 * of elements, L1D automaton per line; returns the L1D misses.  Degenerate
 * strides (<= 0) revisit the same element with one DTLB consultation each,
 * as the scalar ``data_read`` loop does -- same totals, same state. */
static long
data_strided_impl(Machine *m, long addr, long stride, long count, long size,
                  int write)
{
    long page_shift = m->dtlb->page_shift;
    int port = write ? PORT_DATA_WRITE : PORT_DATA_READ;
    long position = 0, misses = 0;
    long fill_before = m->l2->misses[PORT_DATA_READ]
                       + m->l2->misses[PORT_DATA_WRITE];
    m->user[EV_DATA_MEM_REFS] += count;
    while (position < count) {
        long element = stride > 0 ? addr + position * stride : addr;
        long run = 1;
        if (stride > 0) {
            long page_end = ((element >> page_shift) + 1) << page_shift;
            run = (page_end - element + stride - 1) / stride;
            if (run > count - position)
                run = count - position;
            if (run < 1)
                run = 1;
        }
        m->user[EV_DTLB_MISS] += tlb_access(m->dtlb, element >> page_shift, run);
        misses += cache_strided(m->l1d, element, stride, run, size, port, write);
        position += run;
    }
    if (misses) {
        m->user[EV_DCU_LINES_IN] += misses;
        m->user[EV_L2_DATA_RQSTS] += misses;
        m->user[EV_L2_DATA_MISS] += m->l2->misses[PORT_DATA_READ]
                                    + m->l2->misses[PORT_DATA_WRITE]
                                    - fill_before;
    }
    return misses;
}

/* ---------------------------------------------------------------- object */

/* Machine(l1d, l1i, l2, dtlb, itlb, btb, l1i_stall_cost, l2i_stall_cost,
 *         os_interval_instructions, processor) -- the six state objects must
 * be this module's own types, so a machine never mixes them with the
 * reference machine's. */
static PyObject *
Machine_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    CacheState *l1d, *l1i, *l2;
    TLBState *dtlb, *itlb;
    BTBState *btb;
    PyObject *processor;
    double l1i_stall_cost, l2i_stall_cost;
    long os_interval;
    if (check_no_keywords("Machine", kwargs) < 0
            || !PyArg_ParseTuple(args, "O!O!O!O!O!O!ddlO", &CacheStateType, &l1d,
                                 &CacheStateType, &l1i, &CacheStateType, &l2,
                                 &TLBStateType, &dtlb, &TLBStateType, &itlb,
                                 &BTBStateType, &btb, &l1i_stall_cost,
                                 &l2i_stall_cost, &os_interval, &processor))
        return NULL;
    if (l1d->next != l2 || l1i->next != l2 || os_interval < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "both L1 caches must fill from the given L2, and the "
                        "interrupt interval cannot be negative");
        return NULL;
    }
    Machine *m = (Machine *)type->tp_alloc(type, 0);
    if (m == NULL)
        return NULL;
#define OWN(field) do { Py_INCREF(field); m->field = field; } while (0)
    OWN(l1d); OWN(l1i); OWN(l2); OWN(dtlb); OWN(itlb); OWN(btb);
#undef OWN
    m->l1i_stall_cost = l1i_stall_cost;
    m->l2i_stall_cost = l2i_stall_cost;
    m->os_interval = os_interval;
    m->processor = processor;
    m->last_instruction_page = -1;
    return (PyObject *)m;
}

static void
Machine_dealloc(PyObject *self)
{
    Machine *m = (Machine *)self;
    Py_XDECREF(m->l1d); Py_XDECREF(m->l1i); Py_XDECREF(m->l2);
    Py_XDECREF(m->dtlb); Py_XDECREF(m->itlb); Py_XDECREF(m->btb);
    Py_TYPE(self)->tp_free(self);
}

/* charged_strided(addr, stride, count, size, write) -- ``data_read_strided``
 * / ``data_write_strided`` (and their scalar special case) including DTLB,
 * caches and event counters; returns the L1D miss count. */
static PyObject *
Machine_charged_strided(Machine *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("charged_strided", nargs, 5) < 0)
        return NULL;
    long addr = PyLong_AsLong(args[0]);
    long stride = PyLong_AsLong(args[1]);
    long count = PyLong_AsLong(args[2]);
    long size = PyLong_AsLong(args[3]);
    long write = PyLong_AsLong(args[4]);
    if (PyErr_Occurred())
        return NULL;
    if (count <= 0)
        return PyLong_FromLong(0);
    return PyLong_FromLong(data_strided_impl(m, addr, stride, count, size,
                                             write ? 1 : 0));
}

/* charged_fields(base, ((offset, width), ...)) -- the field loads of one
 * record: ``data_read(base + offset, width)`` per field, in order; returns
 * the L1D miss count. */
static PyObject *
Machine_charged_fields(Machine *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("charged_fields", nargs, 2) < 0)
        return NULL;
    long base = PyLong_AsLong(args[0]);
    if (base == -1 && PyErr_Occurred())
        return NULL;
    if (!PyTuple_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "fields must be a tuple of pairs");
        return NULL;
    }
    long misses = 0;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(args[1]); i++) {
        long offset, width;
        if (!PyArg_ParseTuple(PyTuple_GET_ITEM(args[1], i), "ll", &offset, &width))
            return NULL;
        misses += data_strided_impl(m, base + offset, 0, 1, width, 0);
    }
    return PyLong_FromLong(misses);
}

/* charged_addresses(addresses, size, write) -- one ``data_read(address,
 * size)`` (``data_write`` when ``write``) per address of the sequence, in
 * order; returns the L1D miss count.  Every address is converted before the
 * first is charged, so a bad element raises with the machine untouched. */
static PyObject *
Machine_charged_addresses(Machine *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("charged_addresses", nargs, 3) < 0)
        return NULL;
    long size = PyLong_AsLong(args[1]);
    long write = PyLong_AsLong(args[2]);
    if (PyErr_Occurred())
        return NULL;
    PyObject *seq = PySequence_Fast(args[0], "addresses must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(seq);
    long *addresses = PyMem_Malloc((size_t)(count ? count : 1) * sizeof(long));
    if (addresses == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        addresses[i] = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (addresses[i] == -1 && PyErr_Occurred()) {
            PyMem_Free(addresses);
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_DECREF(seq);
    long misses = 0;
    for (Py_ssize_t i = 0; i < count; i++)
        misses += data_strided_impl(m, addresses[i], 0, 1, size, write ? 1 : 0);
    PyMem_Free(addresses);
    return PyLong_FromLong(misses);
}

/* fetch_run(line_addr, count) -- ``fetch_code_run`` including the ITLB,
 * front-end stall accumulation and counters; returns L1I misses. */
static PyObject *
Machine_fetch_run(Machine *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("fetch_run", nargs, 2) < 0)
        return NULL;
    long line_addr = PyLong_AsLong(args[0]);
    long count = PyLong_AsLong(args[1]);
    if (PyErr_Occurred())
        return NULL;
    return PyLong_FromLong(fetch_run_impl(m, line_addr, count));
}

/* conjunct(address, outcomes) -- the per-row branch loop of
 * ``visit_conjunct_batch`` and its ``count_branches``; returns
 * (taken, mispredictions) for the adaptive collector. */
static PyObject *
Machine_conjunct(Machine *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("conjunct", nargs, 2) < 0)
        return NULL;
    long address = PyLong_AsLong(args[0]);
    if (address == -1 && PyErr_Occurred())
        return NULL;
    PyObject *seq = PySequence_Fast(args[1], "outcomes must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(seq);
    long taken_count = 0, mispredictions = 0;
    long btb_before = m->btb->btb_misses;
    for (Py_ssize_t i = 0; i < count; i++) {
        int taken = PyObject_IsTrue(PySequence_Fast_GET_ITEM(seq, i));
        if (taken < 0)
            break;
        taken_count += taken;
        mispredictions += btb_execute(m->btb, address, taken, 0);
    }
    Py_DECREF(seq);
    if (PyErr_Occurred())
        return NULL;
    m->user[EV_BR_INST_RETIRED] += count;
    m->user[EV_BR_TAKEN_RETIRED] += taken_count;
    m->user[EV_BR_MISS_PRED_RETIRED] += mispredictions;
    m->user[EV_BTB_MISSES] += m->btb->btb_misses - btb_before;
    return Py_BuildValue("(ll)", taken_count, mispredictions);
}

/* ----------------------------------------------- the user bank, from Python */

/* Bank index of an event name; -1 when it is not one, with ``KeyError`` set
 * if it is ``required`` to be. */
static int
event_of(PyObject *name, int required)
{
    PyObject *index = PyDict_GetItemWithError(event_index, name);  /* borrowed */
    if (index != NULL)
        return (int)PyLong_AsLong(index);
    if (required && !PyErr_Occurred())
        PyErr_SetObject(PyExc_KeyError, name);
    return -1;
}

static inline int
counter_present(const Machine *m, int event)
{
    return m->user[event] != 0 || (m->assigned >> event) & 1;
}

/* add(event, delta) -- ``bank[event] = bank.get(event, 0) + delta``, the
 * write every Python-side counter update of a native processor goes
 * through. */
static PyObject *
Machine_add(Machine *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("add", nargs, 2) < 0)
        return NULL;
    int event = event_of(args[0], 1);
    long delta = PyLong_AsLong(args[1]);
    if (event < 0 || (delta == -1 && PyErr_Occurred()))
        return NULL;
    m->user[event] += delta;
    m->assigned |= (uint64_t)1 << event;
    Py_RETURN_NONE;
}

/* counter(event, default) -> the count, or ``default`` for an absent key. */
static PyObject *
Machine_counter(Machine *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("counter", nargs, 2) < 0)
        return NULL;
    int event = event_of(args[0], 0);
    if (event < 0 && PyErr_Occurred())
        return NULL;
    if (event < 0 || !counter_present(m, event))
        return Py_NewRef(args[1]);
    return PyLong_FromLong(m->user[event]);
}

/* set_counter(event, value) -- assign a count; ``None`` deletes the key. */
static PyObject *
Machine_set_counter(Machine *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("set_counter", nargs, 2) < 0)
        return NULL;
    int event = event_of(args[0], 1);
    if (event < 0)
        return NULL;
    if (args[1] == Py_None) {
        m->user[event] = 0;
        m->assigned &= ~((uint64_t)1 << event);
        Py_RETURN_NONE;
    }
    long value = PyLong_AsLong(args[1]);
    if (value == -1 && PyErr_Occurred())
        return NULL;
    m->user[event] = value;
    m->assigned |= (uint64_t)1 << event;
    Py_RETURN_NONE;
}

/* counters() -> a new ``{event: count}`` dict of the present keys. */
static PyObject *
Machine_counters(Machine *m, PyObject *ignored)
{
    (void)ignored;
    PyObject *out = PyDict_New();
    for (int event = 0; out != NULL && event < N_EVENTS; event++) {
        if (!counter_present(m, event))
            continue;
        PyObject *value = PyLong_FromLong(m->user[event]);
        if (value == NULL || PyDict_SetItem(out, event_key[event], value) < 0)
            Py_CLEAR(out);
        Py_XDECREF(value);
    }
    return out;
}

static PyObject *Machine_context(Machine *m, PyObject *args);

static PyMemberDef Machine_members[] = {
    MEMBER(Machine, l1i_stall_cycles, T_DOUBLE,
           "Accumulated front-end stall cycles (IFU_MEM_STALL before rounding)."),
    MEMBER(Machine, last_instruction_page, T_LONG,
           "Page of the last fetched instruction line (-1: none)."),
    MEMBER(Machine, os_since_last, T_LONG,
           "User instructions retired since the last interrupt."),
    MEMBER(Machine, os_interrupts, T_LONG, "Interrupts fired so far."),
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef Machine_methods[] = {
    {"charged_strided", METHOD(Machine_charged_strided), METH_FASTCALL,
     "Charged strided data access (DTLB + caches + counters); returns misses."},
    {"charged_fields", METHOD(Machine_charged_fields), METH_FASTCALL,
     "Charged field loads of one record; returns misses."},
    {"charged_addresses", METHOD(Machine_charged_addresses), METH_FASTCALL,
     "Charged scalar access per address of a sequence; returns misses."},
    {"fetch_run", METHOD(Machine_fetch_run), METH_FASTCALL,
     "Charged instruction-line run fetch (ITLB + L1I + counters); returns misses."},
    {"conjunct", METHOD(Machine_conjunct), METH_FASTCALL,
     "Charged per-row conjunct branch loop; returns (taken, mispredictions)."},
    {"add", METHOD(Machine_add), METH_FASTCALL,
     "Add to one user-mode event counter."},
    {"counter", METHOD(Machine_counter), METH_FASTCALL,
     "One user-mode event count, or the default when the key is absent."},
    {"set_counter", METHOD(Machine_set_counter), METH_FASTCALL,
     "Assign one user-mode event count; None deletes the key."},
    {"counters", METHOD(Machine_counters), METH_NOARGS,
     "A new dict of the user-mode event counts present."},
    {"context", METHOD(Machine_context), METH_VARARGS,
     "Bind an ExecutionContext's visit constants; returns a Context."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject MachineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.Machine",
    .tp_basicsize = sizeof(Machine),
    .tp_dealloc = Machine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One processor's native automata, counter bank, clock and charged operations.",
    .tp_methods = Machine_methods,
    .tp_members = Machine_members,
    .tp_new = Machine_new,
};

/* ======================================================================= */
/* Context and Segment: the executor's routine visit                        */
/* ======================================================================= */

/* State of one alternating / rare branch site, keyed by its address as in
 * ``ExecutionContext._site_state``; present there once ``touched``. */
typedef struct {
    long addr, state;
    int touched;
} SiteState;

typedef struct {
    PyObject_HEAD
    Machine *machine;      /* owned */
    long ws_base, ws_stride, ws_size, cold_base, cold_pool, line_bytes;
    /* Visit bookkeeping (``ExecutionContext._visit_counter`` and friends
     * read and write these members). */
    long visit_counter, cold_cursor, workspace_cursor;
    double bulk_carry;
    SiteState *sites;      /* grows as segments with stateful sites bind */
    long n_sites;
} Context;

static PyTypeObject ContextType;

typedef struct {
    long kind, addr, weight;
    long slot;  /* index into the context's ``sites`` (kinds 2 and 3) */
} Site;

typedef struct {
    PyObject_VAR_HEAD
    Context *context;  /* owned */
    long invocations;  /* ``ExecutionContext.op_invocations[operation]`` */
    long base, hot, cold, instructions, uops, data_refs;
    long dep, fu, ild, total_stall, touches, bulk, bulk_taken, bulk_btb;
    double bulk_expected;
    Site sites[1];
} Segment;

static PyTypeObject SegmentType;

/* Machine.context(ws_base, ws_stride, ws_size, cold_base, cold_pool,
 *                 line_bytes) -> Context */
static PyObject *
Machine_context(Machine *m, PyObject *args)
{
    Context *c = (Context *)ContextType.tp_alloc(&ContextType, 0);
    if (c == NULL)
        return NULL;
    Py_INCREF(m);
    c->machine = m;
    if (!PyArg_ParseTuple(args, "llllll", &c->ws_base, &c->ws_stride,
                          &c->ws_size, &c->cold_base, &c->cold_pool,
                          &c->line_bytes)) {
        Py_DECREF(c);
        return NULL;
    }
    if (c->ws_stride <= 0 || c->ws_stride >= c->ws_size || c->cold_pool <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "need 0 < workspace stride < size and a cold pool");
        Py_DECREF(c);
        return NULL;
    }
    return (PyObject *)c;
}

static void
Context_dealloc(PyObject *self)
{
    Context *c = (Context *)self;
    Py_XDECREF(c->machine);
    PyMem_Free(c->sites);
    Py_TYPE(self)->tp_free(self);
}

/* Slot of the site at ``addr`` in the context's table (appended on first
 * sight); -1 with an exception set when memory runs out. */
static long
context_site_slot(Context *c, long addr)
{
    for (long i = 0; i < c->n_sites; i++) {
        if (c->sites[i].addr == addr)
            return i;
    }
    SiteState *grown = PyMem_Realloc(c->sites,
                                     (size_t)(c->n_sites + 1) * sizeof(SiteState));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->sites = grown;
    grown[c->n_sites] = (SiteState){addr, 0, 0};
    return c->n_sites++;
}

/* ``_site_outcome`` of an alternating (kind 2) or rare (kind 3) site. */
static inline int
stateful_site_outcome(SiteState *site, long kind)
{
    site->touched = 1;
    if (kind == 2)
        return (int)(site->state ^= 1);
    return ++site->state % 64 == 0;
}

/* segment(handle_tuple) -> Segment; the handle is pure scalars:
 * (base, hot, cold, instructions, uops, data_refs, dep, fu, ild,
 *  total_stall, touches, bulk, bulk_taken, bulk_expected, bulk_btb,
 *  ((kind, address, weight), ...)) */
static PyObject *
Context_segment(Context *c, PyObject *seg)
{
    if (!PyTuple_Check(seg) || PyTuple_GET_SIZE(seg) != 16
            || !PyTuple_Check(PyTuple_GET_ITEM(seg, 15))) {
        PyErr_SetString(PyExc_TypeError, "segment handle must be a 16-tuple");
        return NULL;
    }
    PyObject *sites = PyTuple_GET_ITEM(seg, 15);
    Py_ssize_t n_sites = PyTuple_GET_SIZE(sites);
    Segment *s = (Segment *)SegmentType.tp_alloc(&SegmentType, n_sites);
    if (s == NULL)
        return NULL;
    Py_INCREF(c);
    s->context = c;
    PyArg_ParseTuple(seg, "llllllllllllldlO", &s->base, &s->hot, &s->cold,
                     &s->instructions, &s->uops, &s->data_refs, &s->dep, &s->fu,
                     &s->ild, &s->total_stall, &s->touches, &s->bulk,
                     &s->bulk_taken, &s->bulk_expected, &s->bulk_btb, &sites);
    for (Py_ssize_t i = 0; i < n_sites && !PyErr_Occurred(); i++) {
        Site *site = &s->sites[i];
        if (!PyArg_ParseTuple(PyTuple_GET_ITEM(sites, i), "lll", &site->kind,
                              &site->addr, &site->weight))
            break;
        if (site->kind == 2 || site->kind == 3)
            site->slot = context_site_slot(c, site->addr);
    }
    if (PyErr_Occurred()) {
        Py_DECREF(s);
        return NULL;
    }
    return (PyObject *)s;
}

/* site_state() -> a new ``{address: state}`` dict of the touched sites. */
static PyObject *
Context_site_state(Context *c, PyObject *ignored)
{
    (void)ignored;
    PyObject *out = PyDict_New();
    for (long i = 0; out != NULL && i < c->n_sites; i++) {
        if (!c->sites[i].touched)
            continue;
        PyObject *addr = PyLong_FromLong(c->sites[i].addr);
        PyObject *state = PyLong_FromLong(c->sites[i].state);
        if (addr == NULL || state == NULL || PyDict_SetItem(out, addr, state) < 0)
            Py_CLEAR(out);
        Py_XDECREF(addr);
        Py_XDECREF(state);
    }
    return out;
}

/* ``ExecutionContext._touch_workspace``: cyclic strided 4-byte reads with
 * DTLB page-run bulking, one bulk run per wrap of the cursor. */
static void
workspace_impl(Context *c, long touches)
{
    long cursor = c->workspace_cursor % c->ws_size;
    while (touches > 0) {
        long run = (c->ws_size - cursor + c->ws_stride - 1) / c->ws_stride;
        if (run > touches)
            run = touches;
        data_strided_impl(c->machine, c->ws_base + cursor, c->ws_stride, run,
                          4, 0);
        cursor = (cursor + run * c->ws_stride) % c->ws_size;
        touches -= run;
    }
    c->workspace_cursor = cursor;
}

/* ``ExecutionContext._pseudo_random_bit`` (Knuth multiplicative hash). */
static int
pseudo_random_bit(long visit_counter, long salt)
{
    unsigned long value =
        ((unsigned long)(visit_counter + salt) * HASH_CONSTANT) & 0xFFFFFFFFUL;
    return (int)((value >> 17) & 1UL);
}

/* One full ``ExecutionContext._visit_segment``, every event counted where
 * it happens.  Site kinds: 0 loop, 1 data, 2 alternating, 3 rare, 4 cold.
 * data_taken: -1 (pseudo-random data branches), or the outcome.  Returns -1
 * when the interrupt handler raised: the visit stops there, as the Python
 * one does, with everything before the hook counted. */
static int
visit_segment(Segment *s, int data_taken)
{
    Context *c = s->context;
    Machine *m = c->machine;
    long *user = m->user;
    long visit_counter = ++c->visit_counter;

    /* Instruction side: hot lines, then the cold-code slice (a rotating
     * window of the cold pool; it may wrap once). */
    fetch_run_impl(m, s->base, s->hot);
    if (s->cold) {
        long cursor = c->cold_cursor % c->cold_pool;
        if (s->cold < c->cold_pool) {
            long run = c->cold_pool - cursor;
            if (run > s->cold)
                run = s->cold;
            fetch_run_impl(m, c->cold_base + cursor * c->line_bytes, run);
            fetch_run_impl(m, c->cold_base, s->cold - run);
        }
        else {
            /* The slice wraps the whole pool: ``fetch_code`` over its lines,
             * repeated ones included, with one stall accumulation. */
            double stall = m->l1i_stall_cycles;
            long l1i_before = m->l1i->misses[PORT_INSTRUCTION];
            long l2i_before = m->l2->misses[PORT_INSTRUCTION];
            for (long k = 0; k < s->cold; k++)
                fetch_run_impl(m, c->cold_base + (cursor + k) % c->cold_pool
                                                 * c->line_bytes, 1);
            long l1i_run = m->l1i->misses[PORT_INSTRUCTION] - l1i_before;
            if (l1i_run)
                m->l1i_stall_cycles = stall + ((double)l1i_run * m->l1i_stall_cost
                    + (double)(m->l2->misses[PORT_INSTRUCTION] - l2i_before)
                      * m->l2i_stall_cost);
        }
        c->cold_cursor = (cursor + s->cold) % c->cold_pool;
    }

    /* ``charge_routine``: retirement, bulk references, resource stalls. */
    user[EV_INST_RETIRED] += s->instructions;
    user[EV_INST_DECODED] += s->instructions;
    user[EV_UOPS_RETIRED] += s->uops;
    user[EV_DATA_MEM_REFS] += s->data_refs;
    user[EV_PARTIAL_RAT_STALLS] += s->dep;
    user[EV_FU_CONTENTION_STALLS] += s->fu;
    user[EV_ILD_STALL] += s->ild;
    user[EV_RESOURCE_STALLS] += s->total_stall;

    /* The OS-interference hook of ``charge_routine``, at the same point of
     * the visit (``OSInterference.note_instructions``).  Only when an
     * interrupt falls due is the handler entered, in Python; its
     * ``invalidate_fraction``, ITLB ``flush`` and ``_last_instruction_page``
     * act on the state objects and the member used here. */
    if (m->os_interval && s->instructions > 0) {
        m->os_since_last += s->instructions;
        long fired = m->os_since_last / m->os_interval;
        if (fired) {
            m->os_since_last -= fired * m->os_interval;
            m->os_interrupts += fired;
            PyObject *count = PyLong_FromLong(fired);
            PyObject *r = count == NULL ? NULL : PyObject_CallMethodObjArgs(
                m->processor, s_service_interrupts, count, NULL);
            Py_XDECREF(count);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        }
    }

    /* Private working-set touches. */
    workspace_impl(c, s->touches);

    /* Branch sites: the predictor runs per site, the retirement counters
     * carry the site weights. */
    long retired = 0, taken_weight = 0, mispredicted_weight = 0;
    long btb_before = m->btb->btb_misses;
    for (Py_ssize_t i = 0; i < Py_SIZE(s); i++) {
        long kind = s->sites[i].kind;
        long site_addr = s->sites[i].addr;
        long weight = s->sites[i].weight;
        long exec_addr = site_addr;
        int taken;
        if (kind == 0) {  /* loop: always taken */
            taken = 1;
        }
        else if (kind == 1) {  /* data-dependent */
            taken = data_taken < 0 ? pseudo_random_bit(visit_counter, site_addr)
                                   : data_taken;
        }
        else if (kind == 2 || kind == 3) {  /* alternating / rare */
            taken = stateful_site_outcome(&c->sites[s->sites[i].slot], kind);
        }
        else {  /* cold: the site address varies per visit */
            long offset = (long)(((unsigned long)visit_counter
                                  * HASH_CONSTANT) & 0x1FFFUL);
            exec_addr = site_addr + 64 + (offset & ~0x3FL);
            taken = pseudo_random_bit(visit_counter, exec_addr);
        }
        int mispredicted = btb_execute(m->btb, exec_addr, taken, kind == 0);
        retired += weight;
        if (taken)
            taken_weight += weight;
        if (mispredicted)
            mispredicted_weight += weight;
    }
    if (retired > 0) {  /* ``count_branches`` ignores a zero population */
        user[EV_BR_INST_RETIRED] += retired;
        user[EV_BR_TAKEN_RETIRED] += taken_weight;
        user[EV_BR_MISS_PRED_RETIRED] += mispredicted_weight;
        user[EV_BTB_MISSES] += m->btb->btb_misses - btb_before;
    }

    /* Bulk branch population (counters only; the predictor is untouched). */
    if (s->bulk > 0) {
        double expected = s->bulk_expected + c->bulk_carry;
        long bulk_mispredicted = (long)expected;  /* int(): truncation */
        c->bulk_carry = expected - (double)bulk_mispredicted;
        user[EV_BR_INST_RETIRED] += s->bulk;
        user[EV_BR_TAKEN_RETIRED] += s->bulk_taken;
        user[EV_BR_MISS_PRED_RETIRED] += bulk_mispredicted;
        user[EV_BTB_MISSES] += s->bulk_btb;
    }
    return 0;
}

/* visit(data_taken, repeat) -- ``ExecutionContext.visit``: count ``repeat``
 * invocations, then run that many visits (data_taken: None or a truth
 * value). */
static PyObject *
Segment_visit(Segment *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("visit", nargs, 2) < 0)
        return NULL;
    int data_taken = args[0] == Py_None ? -1 : PyObject_IsTrue(args[0]);
    if (data_taken < 0 && args[0] != Py_None)
        return NULL;
    long repeat = PyLong_AsLong(args[1]);
    if (repeat == -1 && PyErr_Occurred())
        return NULL;
    s->invocations += repeat;
    while (repeat-- > 0) {
        if (visit_segment(s, data_taken) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static void
Segment_dealloc(PyObject *self)
{
    Py_XDECREF(((Segment *)self)->context);
    Py_TYPE(self)->tp_free(self);
}

/* workspace(touches) -- ``_touch_workspace`` alone (the vectorized
 * loop-body churn of ``visit_batch``). */
static PyObject *
Context_workspace(Context *c, PyObject *arg)
{
    long touches = PyLong_AsLong(arg);
    if (touches == -1 && PyErr_Occurred())
        return NULL;
    workspace_impl(c, touches);
    Py_RETURN_NONE;
}

/* ----------------------------------------------------- tuple pipelines */

/* Step kinds of a pipeline program (``repro.execution.context.STEP_*``). */
enum {
    STEP_VISIT,          /* (kind, segment): a visit, pseudo-random data branches */
    STEP_VISIT_OUTCOME,  /* (kind, segment): a visit taking the record's outcome */
    STEP_VISIT_MATCHED,  /* (kind, segment): a visit taking "the row matched" */
    STEP_LOADS,          /* (kind, ((offset, scale, width), ...)): a load of
                          * ``width`` bytes at ``offset + scale * key`` each */
    STEP_READ,           /* (kind, address, size) */
    STEP_WRITE,          /* (kind, address, size) */
    STEP_READ_BUCKET,    /* (kind, size): at the row's bucket address */
    STEP_WRITE_BUCKET,   /* (kind, size) */
    STEP_EACH_MATCH,     /* (kind, steps): the steps once per match of the row */
};

/* Bounds of one program: far above any operator's (a few visits, one load
 * per column, two accesses per aggregate), and they keep it on the stack. */
#define PROGRAM_STEPS 128
#define PROGRAM_LOADS 128
#define PROGRAM_DEPTH 4

typedef struct {
    int kind;
    Segment *segment;           /* visits; borrowed from the program tuple */
    long address, size;         /* READ / WRITE; *_BUCKET use ``size`` only */
    Py_ssize_t first, count;    /* LOADS: triples of ``loads``; EACH_MATCH:
                                 * its steps */
} Step;

typedef struct {
    Step steps[PROGRAM_STEPS];
    long loads[3 * PROGRAM_LOADS];
    Py_ssize_t n_steps, n_loads;
    int uses_buckets, uses_matches;
} Program;

/* Compile the tuple ``steps`` into ``p`` (its top level contiguous, nested
 * lists after it); returns the index of its first step, or -1 with an
 * exception set.  Only a per-row list (``depth`` > 0) may use the row's
 * bucket address and match count. */
static Py_ssize_t
program_steps(Context *c, Program *p, PyObject *steps, int depth)
{
    if (!PyTuple_Check(steps)) {
        PyErr_SetString(PyExc_TypeError, "program steps must be a tuple");
        return -1;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(steps), first = p->n_steps;
    if (depth > PROGRAM_DEPTH || first + n > PROGRAM_STEPS) {
        PyErr_SetString(PyExc_ValueError, "pipeline program too long");
        return -1;
    }
    p->n_steps += n;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyTuple_GET_ITEM(steps, i);
        Step *step = &p->steps[first + i];
        memset(step, 0, sizeof(*step));
        Py_ssize_t arity = PyTuple_Check(item) ? PyTuple_GET_SIZE(item) - 1 : -1;
        long kind = arity < 0 ? -1 : PyLong_AsLong(PyTuple_GET_ITEM(item, 0));
        if (kind == -1 && PyErr_Occurred())
            return -1;
        step->kind = (int)kind;
        PyObject *arg = arity >= 1 ? PyTuple_GET_ITEM(item, 1) : NULL;
        int per_row = kind == STEP_VISIT_MATCHED || kind == STEP_READ_BUCKET
                      || kind == STEP_WRITE_BUCKET || kind == STEP_EACH_MATCH;
        if (per_row && depth == 0) {
            PyErr_SetString(PyExc_ValueError,
                            "only a row's steps may use its bucket or matches");
            return -1;
        }
        switch (kind) {
        case STEP_VISIT:
        case STEP_VISIT_OUTCOME:
        case STEP_VISIT_MATCHED:
            if (arity != 1)
                goto malformed;
            if (Py_TYPE(arg) != &SegmentType || ((Segment *)arg)->context != c) {
                PyErr_SetString(PyExc_ValueError,
                                "a visit step needs a segment of this context");
                return -1;
            }
            step->segment = (Segment *)arg;
            p->uses_matches |= kind == STEP_VISIT_MATCHED;
            break;
        case STEP_LOADS:
            if (arity != 1 || !PyTuple_Check(arg))
                goto malformed;
            step->first = p->n_loads;
            step->count = PyTuple_GET_SIZE(arg);
            if (p->n_loads + step->count > PROGRAM_LOADS) {
                PyErr_SetString(PyExc_ValueError, "pipeline program too long");
                return -1;
            }
            for (Py_ssize_t j = 0; j < step->count; j++) {
                long *load = p->loads + 3 * (p->n_loads + j);
                if (!PyArg_ParseTuple(PyTuple_GET_ITEM(arg, j), "lll;a load is "
                                      "(offset, scale, width)",
                                      &load[0], &load[1], &load[2]))
                    return -1;
            }
            p->n_loads += step->count;
            break;
        case STEP_READ:
        case STEP_WRITE:
            if (arity != 2)
                goto malformed;
            step->address = PyLong_AsLong(arg);
            step->size = PyLong_AsLong(PyTuple_GET_ITEM(item, 2));
            if (PyErr_Occurred())
                return -1;
            break;
        case STEP_READ_BUCKET:
        case STEP_WRITE_BUCKET:
            if (arity != 1)
                goto malformed;
            step->size = PyLong_AsLong(arg);
            if (step->size == -1 && PyErr_Occurred())
                return -1;
            p->uses_buckets = 1;
            break;
        case STEP_EACH_MATCH:
            if (arity != 1)
                goto malformed;
            p->uses_matches = 1;
            step->first = program_steps(c, p, arg, depth + 1);
            if (step->first < 0)
                return -1;
            step->count = PyTuple_GET_SIZE(arg);
            break;
        default:
            goto malformed;
        }
        continue;
    malformed:
        PyErr_Format(PyExc_TypeError, "malformed pipeline step %R", item);
        return -1;
    }
    return first;
}

/* Run ``count`` steps from ``first`` for one record (``key``, ``outcome``)
 * and, in a row's steps, its bucket address and match count; -1 when the
 * interrupt handler raised (the charges before it stay, as in a visit). */
static int
run_steps(Context *c, Program *p, Py_ssize_t first, Py_ssize_t count, long key,
          int outcome, long bucket, long matches)
{
    Machine *m = c->machine;
    for (Step *step = p->steps + first; step < p->steps + first + count; step++) {
        switch (step->kind) {
        case STEP_VISIT:
        case STEP_VISIT_OUTCOME:
        case STEP_VISIT_MATCHED:
            step->segment->invocations++;
            if (visit_segment(step->segment,
                              step->kind == STEP_VISIT ? -1
                              : step->kind == STEP_VISIT_OUTCOME ? outcome
                              : matches > 0) < 0)
                return -1;
            break;
        case STEP_LOADS:
            for (const long *load = p->loads + 3 * step->first;
                 load < p->loads + 3 * (step->first + step->count); load += 3)
                data_strided_impl(m, load[0] + load[1] * key, 0, 1, load[2], 0);
            break;
        case STEP_READ:
        case STEP_WRITE:
            data_strided_impl(m, step->address, 0, 1, step->size,
                              step->kind == STEP_WRITE);
            break;
        case STEP_READ_BUCKET:
        case STEP_WRITE_BUCKET:
            data_strided_impl(m, bucket, 0, 1, step->size,
                              step->kind == STEP_WRITE_BUCKET);
            break;
        default:  /* STEP_EACH_MATCH */
            for (long k = 0; k < matches; k++) {
                if (run_steps(c, p, step->first, step->count, key, outcome,
                              bucket, matches) < 0)
                    return -1;
            }
        }
    }
    return 0;
}

/* ``record_done``: what ``Machine.add("RECORDS_PROCESSED", 1)`` does. */
static inline void
record_processed(Machine *m)
{
    m->user[EV_RECORDS_PROCESSED]++;
    m->assigned |= (uint64_t)1 << EV_RECORDS_PROCESSED;
}

/* Convert ``count`` items of a fast sequence from ``offset`` into ``out``:
 * integers, or truth values when ``truth``; -1 with an exception set. */
static int
sequence_longs(PyObject *seq, Py_ssize_t offset, Py_ssize_t count, long *out,
               int truth)
{
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, offset + i);
        out[i] = truth ? PyObject_IsTrue(item) : PyLong_AsLong(item);
        if (out[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* pipeline(program, records, outcomes, operands, start) -> position
 *
 * One page of a tuple pipeline.  ``program`` is ``(page_steps, record_steps,
 * row_steps, done, pause)``; ``records`` the records' keys (what a load's
 * ``scale`` multiplies); ``outcomes`` one truth value per record, or None
 * when every record qualifies; ``operands`` None or ``(buckets, matches)``,
 * each None or one integer per qualifying record.  Starting at record
 * ``start`` (at 0: after ``page_steps``; past 0: after finishing record
 * ``start - 1``, which a pause left before its ``done``), each record runs
 * ``record_steps``, then -- when it qualifies -- ``row_steps``, then with
 * ``done`` counts ``RECORDS_PROCESSED``.  With ``pause`` the call returns
 * the index of a qualifying record right after its ``row_steps``; otherwise,
 * and at the end of the page, it returns the record count.  Every argument
 * is converted before the first charge, so a malformed one raises with the
 * machine untouched. */
static PyObject *
Context_pipeline(Context *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("pipeline", nargs, 5) < 0)
        return NULL;
    Program p;
    p.n_steps = p.n_loads = 0;
    p.uses_buckets = p.uses_matches = 0;
    PyObject *page_steps, *record_steps, *row_steps;
    int done, pause;
    if (!PyTuple_Check(args[0])
            || !PyArg_ParseTuple(args[0], "OOOpp;a program is (page_steps, "
                                 "record_steps, row_steps, done, pause)",
                                 &page_steps, &record_steps, &row_steps, &done,
                                 &pause)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a program is a tuple");
        return NULL;
    }
    Py_ssize_t page_first = program_steps(c, &p, page_steps, 0);
    Py_ssize_t record_first = page_first < 0 ? -1
                              : program_steps(c, &p, record_steps, 0);
    Py_ssize_t row_first = record_first < 0 ? -1
                           : program_steps(c, &p, row_steps, 1);
    Py_ssize_t start = PyLong_AsSsize_t(args[4]);
    if (row_first < 0 || (start == -1 && PyErr_Occurred()))
        return NULL;

    PyObject *operands[2] = {NULL, NULL};  /* buckets, matches */
    if (args[3] != Py_None
            && (!PyTuple_Check(args[3])
                || !PyArg_ParseTuple(args[3], "OO;operands are (buckets, matches)",
                                     &operands[0], &operands[1]))) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "operands are a tuple");
        return NULL;
    }
    PyObject *seqs[4] = {NULL, NULL, NULL, NULL};  /* records, outcomes, operands */
    long *block = NULL;
    PyObject *result = NULL;
    seqs[0] = PySequence_Fast(args[1], "records must be a sequence");
    if (seqs[0] == NULL)
        goto out;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seqs[0]);
    if (args[2] != Py_None) {
        seqs[1] = PySequence_Fast(args[2], "outcomes must be a sequence");
        if (seqs[1] == NULL)
            goto out;
        if (PySequence_Fast_GET_SIZE(seqs[1]) != n) {
            PyErr_SetString(PyExc_ValueError, "one outcome per record");
            goto out;
        }
    }
    if (start < 0 || start > n) {
        PyErr_SetString(PyExc_ValueError, "start must be a record index");
        goto out;
    }
    /* One block: keys, outcomes, then the two operand vectors. */
    block = PyMem_Malloc((size_t)(4 * n + 1) * sizeof(long));
    if (block == NULL) {
        PyErr_NoMemory();
        goto out;
    }
    long *keys = block, *outcome = block + n;
    Py_ssize_t qualifying = n, before = start;
    if (seqs[1] != NULL) {
        if (sequence_longs(seqs[1], 0, n, outcome, 1) < 0)
            goto out;
        qualifying = before = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            qualifying += outcome[i];
            before += i < start && outcome[i];
        }
    }
    if (sequence_longs(seqs[0], start, n - start, keys + start, 0) < 0)
        goto out;
    long *vectors[2] = {NULL, NULL};
    int used[2] = {p.uses_buckets, p.uses_matches};
    for (int k = 0; k < 2; k++) {
        if (operands[k] == NULL || operands[k] == Py_None) {
            if (used[k]) {
                PyErr_SetString(PyExc_ValueError, k ? "the program needs match "
                                "counts" : "the program needs bucket addresses");
                goto out;
            }
            continue;
        }
        seqs[2 + k] = PySequence_Fast(operands[k], "an operand must be a sequence");
        if (seqs[2 + k] == NULL)
            goto out;
        if (PySequence_Fast_GET_SIZE(seqs[2 + k]) != qualifying) {
            PyErr_SetString(PyExc_ValueError,
                            "one operand per qualifying record");
            goto out;
        }
        vectors[k] = block + (2 + k) * n;
        if (sequence_longs(seqs[2 + k], 0, qualifying, vectors[k], 0) < 0)
            goto out;
    }

    Py_ssize_t n_page = PyTuple_GET_SIZE(page_steps);
    Py_ssize_t n_record = PyTuple_GET_SIZE(record_steps);
    Py_ssize_t n_row = PyTuple_GET_SIZE(row_steps);
    Py_ssize_t position = n, row = before;
    if (start == 0) {
        if (run_steps(c, &p, page_first, n_page, 0, 1, 0, 0) < 0)
            goto out;
    }
    else if (done) {
        record_processed(c->machine);
    }
    for (Py_ssize_t i = start; i < n; i++) {
        int qualifies = seqs[1] == NULL || outcome[i];
        if (run_steps(c, &p, record_first, n_record, keys[i], qualifies, 0, 0) < 0)
            goto out;
        if (qualifies) {
            long bucket = vectors[0] ? vectors[0][row] : 0;
            long matches = vectors[1] ? vectors[1][row] : 0;
            row++;
            if (run_steps(c, &p, row_first, n_row, keys[i], 1, bucket, matches) < 0)
                goto out;
            if (pause) {
                position = i;
                break;
            }
        }
        if (done)
            record_processed(c->machine);
    }
    result = PyLong_FromSsize_t(position);
out:
    PyMem_Free(block);
    for (int k = 0; k < 4; k++)
        Py_XDECREF(seqs[k]);
    return result;
}

static PyMemberDef Context_members[] = {
    MEMBER(Context, visit_counter, T_LONG,
           "Routine visits so far (seeds the pseudo-random branch outcomes)."),
    MEMBER(Context, cold_cursor, T_LONG, "Next line of the cold-code pool."),
    MEMBER(Context, workspace_cursor, T_LONG,
           "Next byte offset of the cyclic workspace touches."),
    MEMBER(Context, bulk_carry, T_DOUBLE,
           "Fractional remainder of the bulk-branch misprediction expectation."),
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef Context_methods[] = {
    {"segment", METHOD(Context_segment), METH_O,
     "Parse a code-segment handle tuple into a Segment."},
    {"workspace", METHOD(Context_workspace), METH_O,
     "Charged cyclic workspace touches (DTLB + caches + counters)."},
    {"pipeline", METHOD(Context_pipeline), METH_FASTCALL,
     "Charge one page of a tuple pipeline; returns where it stopped."},
    {"site_state", METHOD(Context_site_state), METH_NOARGS,
     "A new {address: state} dict of the touched stateful sites."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject ContextType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.Context",
    .tp_basicsize = sizeof(Context),
    .tp_dealloc = Context_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,  /* no tp_new: built by Machine.context */
    .tp_doc = "One ExecutionContext's visit constants and bookkeeping over a Machine.",
    .tp_methods = Context_methods,
    .tp_members = Context_members,
};

static PyMemberDef Segment_members[] = {
    MEMBER(Segment, invocations, T_LONG,
           "Interpreted invocations of the operation charged so far."),
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef Segment_methods[] = {
    {"visit", METHOD(Segment_visit), METH_FASTCALL,
     "Count and run full routine visits (fetch, counters, workspace, branches)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SegmentType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.Segment",
    .tp_basicsize = sizeof(Segment) - sizeof(Site),
    .tp_itemsize = sizeof(Site),
    .tp_dealloc = Segment_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,  /* no tp_new: built by Context.segment */
    .tp_doc = "One code segment's visit constants and invocation count over a Context.",
    .tp_methods = Segment_methods,
    .tp_members = Segment_members,
};

/* ================================================================ module */

static struct PyModuleDef cachesim_module = {
    PyModuleDef_HEAD_INIT, "_cachesim",
    "Native hardware automata and charging fast paths.",
    -1, NULL, NULL, NULL, NULL, NULL,
};

/* ``EVENT_NAMES`` (returned, new reference) and the ``event_index`` the
 * bank methods look names up in; interned, so a lookup is a pointer hit. */
static PyObject *
init_events(void)
{
    PyObject *names = PyTuple_New(N_EVENTS);
    event_index = PyDict_New();
    s_service_interrupts = PyUnicode_InternFromString("_service_interrupts");
    if (names == NULL || event_index == NULL || s_service_interrupts == NULL)
        goto fail;
    for (int event = 0; event < N_EVENTS; event++) {
        PyObject *name = PyUnicode_InternFromString(event_names[event]);
        PyObject *index = PyLong_FromLong(event);
        event_key[event] = name;  /* borrowed from ``names``, which the module keeps */
        if (name != NULL)
            PyTuple_SET_ITEM(names, event, name);  /* steals name */
        int rc = name == NULL || index == NULL
            ? -1 : PyDict_SetItem(event_index, name, index);
        Py_XDECREF(index);
        if (rc < 0)
            goto fail;
    }
    return names;
fail:
    Py_XDECREF(names);
    return NULL;
}

static int
add_type(PyObject *module, const char *name, PyTypeObject *type)
{
    if (PyType_Ready(type) < 0)
        return -1;
    Py_INCREF(type);
    if (PyModule_AddObject(module, name, (PyObject *)type) < 0) {
        Py_DECREF(type);
        return -1;
    }
    return 0;
}

PyMODINIT_FUNC
PyInit__cachesim(void)
{
    PyObject *module = PyModule_Create(&cachesim_module);
    if (module == NULL)
        return NULL;
    PyObject *names = init_events();
    if (names == NULL
            || PyModule_AddObject(module, "EVENT_NAMES", names) < 0) {
        Py_XDECREF(names);
        Py_DECREF(module);
        return NULL;
    }
    if (add_type(module, "CacheState", &CacheStateType) < 0
            || add_type(module, "TLBState", &TLBStateType) < 0
            || add_type(module, "BTBState", &BTBStateType) < 0
            || add_type(module, "Machine", &MachineType) < 0
            || add_type(module, "Context", &ContextType) < 0
            || add_type(module, "Segment", &SegmentType) < 0
            || PyModule_AddStringConstant(module, "source_hash",
                                          CACHESIM_SOURCE_HASH) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
