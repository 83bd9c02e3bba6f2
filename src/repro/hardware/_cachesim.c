/* Native hardware automata and charging fast paths.
 *
 * Ownership rule: each automaton has exactly one owner of its state,
 * decided once, when the Python object is constructed.  With this module
 * loaded, ``repro.hardware.cache.Cache``, ``tlb.TLB`` and
 * ``branch.BranchPredictor`` each hold one of the state objects defined
 * here and delegate every method to it; without it they are the pure-Python
 * automata (the oracle of the differential suites and the fallback).  The
 * two are never mixed: nothing in this file reads or writes a Python
 * container on a state-transition path.
 *
 *   CacheState   int64 tags[num_sets * assoc], MRU first within a set; one
 *                dirty byte per way; a fill count per set; an owned
 *                reference to the next level's CacheState.
 *   TLBState     an MRU-ordered page array of ``entries`` slots.
 *   BTBState     per way a tag, a history register and 1 << history_bits
 *                two-bit counters; per set an MRU-ordered array of way slots.
 *   Machine      one processor's automata plus what a charging call folds
 *                into: owned references to the six state objects, to their
 *                Python wrappers (the ``stats`` holders) and to the user
 *                counter bank; the two front-end scalars every fetch
 *                advances; the processor itself is only borrowed.
 *   Context      one ExecutionContext's visit constants and visit
 *                bookkeeping (visit counter, cursors, carry) over a Machine.
 *   Segment      one code segment's visit constants (plain scalars).
 *
 * Why nothing dangles: a state object is reference counted like any Python
 * object, a level owns its next level, a Machine owns its six states and a
 * Context owns its Machine, so the arrays live as long as anything can
 * reach them and are freed in ``tp_dealloc``.  No cycle exists: a next
 * level must exist before the level above it, a state never refers to its
 * wrapper, and the one back reference (Machine -> processor, for the
 * OS-clock callback) is borrowed -- the processor owns its Machine, so the
 * borrow cannot outlive its target.
 *
 * Every transition is a transcription of the Python reference (``cache.py``
 * ``_access_line``, ``tlb.py`` ``access``, ``branch.py``
 * ``execute``); ``snapshot()`` returns the canonical Python shape of a
 * state and is the only surface the differential tests compare.
 *
 * Statistics stay in the Python ``stats`` objects.  A cache level counts
 * the events of one call in its ``pend`` block, exactly where the Python
 * code increments ``stats``, and the entry point folds the block into
 * ``wrapper.stats`` before it returns (the adds commute, so once per call
 * changes no total).
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

/* Interned attribute / counter-key strings (created at module init). */
static PyObject *s_stats, *s_native, *s_next_level;
static PyObject *s_accesses, *s_misses, *s_writebacks;
static PyObject *s_branches, *s_taken, *s_mispredictions, *s_btb_hits, *s_btb_misses;
static PyObject *s_advance_os_clock;
static PyObject *k_IFU_IFETCH, *k_IFU_IFETCH_MISS, *k_L2_IFETCH, *k_L2_IFETCH_MISS;
static PyObject *k_ITLB_MISS, *k_INST_RETIRED, *k_INST_DECODED, *k_UOPS_RETIRED;
static PyObject *k_DATA_MEM_REFS, *k_PARTIAL_RAT_STALLS, *k_FU_CONTENTION_STALLS;
static PyObject *k_ILD_STALL, *k_RESOURCE_STALLS, *k_DTLB_MISS, *k_DCU_LINES_IN;
static PyObject *k_L2_DATA_RQSTS, *k_L2_DATA_MISS, *k_BR_INST_RETIRED;
static PyObject *k_BR_TAKEN_RETIRED, *k_BR_MISS_PRED_RETIRED, *k_BTB_MISSES;

/* Method-table cast through ``void (*)(void)``: the functions below take
 * their own object type as ``self`` (quiet under -Wcast-function-type). */
#define METHOD(function) ((PyCFunction)(void (*)(void))(function))

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

/* ------------------------------------------------------------ fold helpers */

static int
dict_add(PyObject *d, PyObject *key, long delta)
{
    if (!delta)
        return 0;
    PyObject *cur = PyDict_GetItemWithError(d, key);  /* borrowed */
    if (cur == NULL && PyErr_Occurred())
        return -1;
    long value = delta;
    if (cur != NULL) {
        value += PyLong_AsLong(cur);
        if (PyErr_Occurred())
            return -1;
    }
    PyObject *obj = PyLong_FromLong(value);
    if (obj == NULL)
        return -1;
    int rc = PyDict_SetItem(d, key, obj);
    Py_DECREF(obj);
    return rc;
}

static long
get_long_attr(PyObject *obj, PyObject *name, int *err)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) { *err = 1; return 0; }
    long out = PyLong_AsLong(v);
    Py_DECREF(v);
    if (out == -1 && PyErr_Occurred()) { *err = 1; return 0; }
    return out;
}

static int
set_long_attr(PyObject *obj, PyObject *name, long value)
{
    PyObject *v = PyLong_FromLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

static int
attr_add_long(PyObject *obj, PyObject *name, long delta)
{
    if (!delta)
        return 0;
    int err = 0;
    long cur = get_long_attr(obj, name, &err);
    if (err)
        return -1;
    return set_long_attr(obj, name, cur + delta);
}

/* ``stats.<name>[port] += delta`` for port 0..2 of a per-port list. */
static int
port_list_add(PyObject *stats, PyObject *name, const long *deltas)
{
    if (!deltas[0] && !deltas[1] && !deltas[2])
        return 0;
    PyObject *list = PyObject_GetAttr(stats, name);
    if (list == NULL)
        return -1;
    int rc = -1;
    if (!PyList_Check(list) || PyList_GET_SIZE(list) < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "cache statistics must be per-port lists of three");
        goto done;
    }
    for (int port = 0; port < 3; port++) {
        if (!deltas[port])
            continue;
        long cur = PyLong_AsLong(PyList_GET_ITEM(list, port));
        if (cur == -1 && PyErr_Occurred())
            goto done;
        PyObject *obj = PyLong_FromLong(cur + deltas[port]);
        if (obj == NULL)
            goto done;
        PyList_SetItem(list, port, obj);  /* steals obj */
    }
    rc = 0;
done:
    Py_DECREF(list);
    return rc;
}

/* ======================================================================= */
/* Cache level                                                              */
/* ======================================================================= */

/* Events of the call in progress, per port as ``CacheStats`` keeps them. */
typedef struct {
    long accesses[3];
    long misses[3];
    long writebacks;
} Pending;

typedef struct CacheState {
    PyObject_HEAD
    int64_t *tags;    /* num_sets * assoc line numbers, MRU first per set */
    uint8_t *dirty;   /* parallel to tags */
    int32_t *fill;    /* resident ways per set */
    long num_sets, set_mask, assoc, line_shift;
    int write_back;
    struct CacheState *next;  /* owned; NULL on the last level */
    Pending pend;
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
    c->pend.accesses[port]++;
    long set_index = (long)(line & c->set_mask);
    int64_t *tags = c->tags + set_index * c->assoc;
    uint8_t *dirty = c->dirty + set_index * c->assoc;
    long n = c->fill[set_index];
    if (set_probe(tags, dirty, n, line)) {
        if (write)
            dirty[0] = 1;
        return 0;
    }
    c->pend.misses[port]++;
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
            c->pend.writebacks++;
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
 * element spans, in ascending order (``Cache.access_strided``). */
static void
cache_strided(CacheState *c, long addr, long stride, long count, long size,
              int port, int write)
{
    long span = (size > 1 ? size : 1) - 1;
    long shift = c->line_shift;
    long element = addr;
    for (long k = 0; k < count; k++) {
        long last = (element + span) >> shift;
        for (long line = element >> shift; line <= last; line++)
            cache_access_line(c, line, port, write);
        element += stride;
    }
}

/* Fold one level's pending events into ``wrapper.stats`` (a ``CacheStats``;
 * fetched per call, ``reset_stats`` rebinds it). */
static int
cache_fold_into(CacheState *c, PyObject *wrapper)
{
    Pending p = c->pend;
    memset(&c->pend, 0, sizeof(Pending));
    PyObject *stats = PyObject_GetAttr(wrapper, s_stats);
    if (stats == NULL)
        return -1;
    int rc = 0;
    if (port_list_add(stats, s_accesses, p.accesses) < 0
            || port_list_add(stats, s_misses, p.misses) < 0
            || attr_add_long(stats, s_writebacks, p.writebacks) < 0)
        rc = -1;
    Py_DECREF(stats);
    return rc;
}

/* Fold a whole chain: level k's events into the ``stats`` of the k-th
 * wrapper along ``wrapper.next_level``.  Events of a level whose wrapper is
 * gone are dropped with it. */
static int
cache_fold_chain(CacheState *c, PyObject *wrapper)
{
    int rc = 0;
    Py_INCREF(wrapper);
    for (; c != NULL; c = c->next) {
        if (rc < 0 || wrapper == Py_None) {
            memset(&c->pend, 0, sizeof(Pending));
            continue;
        }
        rc = cache_fold_into(c, wrapper);
        if (rc == 0 && c->next != NULL) {
            PyObject *below = PyObject_GetAttr(wrapper, s_next_level);
            if (below == NULL)
                rc = -1;
            else
                Py_SETREF(wrapper, below);
        }
    }
    Py_DECREF(wrapper);
    return rc;
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

/* strided(wrapper, addr, stride, count, size, port, write) -> misses */
static PyObject *
CacheState_strided(CacheState *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("strided", nargs, 7) < 0)
        return NULL;
    long addr = PyLong_AsLong(args[1]);
    long stride = PyLong_AsLong(args[2]);
    long count = PyLong_AsLong(args[3]);
    long size = PyLong_AsLong(args[4]);
    if (PyErr_Occurred())
        return NULL;
    int port = port_arg(args[5]);
    int write = PyObject_IsTrue(args[6]);
    if (port < 0 || write < 0)
        return NULL;
    cache_strided(c, addr, stride, count, size, port, write);
    long misses = c->pend.misses[port];
    if (cache_fold_chain(c, args[0]) < 0)
        return NULL;
    return PyLong_FromLong(misses);
}

/* lines(wrapper, start_addr, step, count, port, write) -> misses
 * -- ``count`` line touches at byte addresses ``start + k * step``. */
static PyObject *
CacheState_lines(CacheState *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("lines", nargs, 6) < 0)
        return NULL;
    long addr = PyLong_AsLong(args[1]);
    long step = PyLong_AsLong(args[2]);
    long count = PyLong_AsLong(args[3]);
    if (PyErr_Occurred())
        return NULL;
    int port = port_arg(args[4]);
    int write = PyObject_IsTrue(args[5]);
    if (port < 0 || write < 0)
        return NULL;
    for (long k = 0; k < count; k++) {
        cache_access_line(c, addr >> c->line_shift, port, write);
        addr += step;
    }
    long misses = c->pend.misses[port];
    if (cache_fold_chain(c, args[0]) < 0)
        return NULL;
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
     "Bulk strided access; folds statistics, returns this level's misses."},
    {"lines", METHOD(CacheState_lines), METH_FASTCALL,
     "Bulk line-run access; folds statistics, returns this level's misses."},
    {"contains", METHOD(CacheState_contains), METH_O,
     "True when the line holding the address is resident."},
    {"resident_lines", METHOD(CacheState_resident_lines), METH_NOARGS,
     "Number of resident lines."},
    {"invalidate_all", METHOD(CacheState_invalidate_all), METH_NOARGS,
     "Drop every line; returns how many."},
    {"invalidate_fraction", METHOD(CacheState_invalidate_fraction), METH_O,
     "Drop the LRU share of every set; returns how many lines."},
    {"snapshot", METHOD(CacheState_snapshot), METH_NOARGS,
     "(MRU-ordered line lists, dirty sets), one entry per set."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CacheStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.CacheState",
    .tp_basicsize = sizeof(CacheState),
    .tp_dealloc = CacheState_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Flat-array state of one set-associative LRU cache level.",
    .tp_methods = CacheState_methods,
    .tp_new = CacheState_new,
};

/* ======================================================================= */
/* TLB                                                                      */
/* ======================================================================= */

typedef struct {
    PyObject_HEAD
    int64_t *pages;  /* MRU first */
    long fill, capacity, page_shift;
} TLBState;

static PyTypeObject TLBStateType;

/* One ``TLB.access`` transition; returns 1 on a miss. */
static inline int
tlb_touch(TLBState *t, int64_t page)
{
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

/* touch(addr) -> 1 on a miss, 0 on a hit */
static PyObject *
TLBState_touch(TLBState *t, PyObject *arg)
{
    long addr = PyLong_AsLong(arg);
    if (addr == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLong(tlb_touch(t, addr >> t->page_shift));
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
    {"touch", METHOD(TLBState_touch), METH_O,
     "Translate an address; returns 1 on a miss."},
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

static PyTypeObject TLBStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.TLBState",
    .tp_basicsize = sizeof(TLBState),
    .tp_dealloc = TLBState_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "MRU-ordered page array of one fully associative LRU TLB.",
    .tp_methods = TLBState_methods,
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
} BTBState;

static PyTypeObject BTBStateType;

typedef struct {
    long branches, taken, mispredictions, btb_hits, btb_misses;
} BranchDeltas;

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
btb_execute(BTBState *b, long site_addr, int taken, int backward,
            BranchDeltas *bd)
{
    bd->branches++;
    bd->taken += taken;
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
        bd->btb_hits++;
        int32_t way = order[i];
        long slot = base + way;
        prediction = b->counters[(slot << b->history_bits)
                                 + b->history[slot]] >= 2;
        memmove(order + 1, order, (size_t)i * sizeof(int32_t));
        order[0] = way;
        btb_update(b, slot, taken);
    }
    else {
        bd->btb_misses++;
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
    bd->mispredictions += mispredicted;
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

/* execute(site_addr, taken, backward) -> bit 0 mispredicted, bit 1 BTB hit */
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
    BranchDeltas bd = {0, 0, 0, 0, 0};
    int mispredicted = btb_execute(b, site_addr, taken, backward, &bd);
    return PyLong_FromLong(mispredicted | (bd.btb_hits ? 2 : 0));
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
     "Execute one branch; bit 0 mispredicted, bit 1 BTB hit."},
    {"resident_entries", METHOD(BTBState_resident_entries), METH_NOARGS,
     "Number of allocated BTB entries."},
    {"flush", METHOD(BTBState_flush), METH_NOARGS,
     "Clear all prediction state."},
    {"snapshot", METHOD(BTBState_snapshot), METH_NOARGS,
     "Per set, MRU first: (tag, history, counters)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject BTBStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.BTBState",
    .tp_basicsize = sizeof(BTBState),
    .tp_dealloc = BTBState_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Two-level adaptive predictor state behind a set-associative BTB.",
    .tp_methods = BTBState_methods,
    .tp_new = BTBState_new,
};

/* ======================================================================= */
/* Machine: one processor's automata and the charged operations over them   */
/* ======================================================================= */

typedef struct {
    PyObject_HEAD
    CacheState *l1d, *l1i, *l2;  /* owned */
    TLBState *dtlb, *itlb;       /* owned */
    BTBState *btb;               /* owned */
    /* The Python wrappers, owned: their ``stats`` objects rebind on
     * ``reset_stats`` and are fetched per call. */
    PyObject *l1d_obj, *l1i_obj, *l2_obj, *dtlb_obj, *itlb_obj, *branch_obj;
    PyObject *user;              /* counters.user dict, owned */
    double l1i_stall_cost, l2i_stall_cost;
    int has_os;                  /* an OS-interference model is attached */
    PyObject *processor;         /* borrowed: the processor owns this object */
    /* Front-end scalars (``SimulatedProcessor._l1i_stall_cycles`` /
     * ``_last_instruction_page`` read and write these members). */
    double l1i_stall_cycles;
    long last_instruction_page;
} Machine;

static PyTypeObject MachineType;

/* What one charged operation adds up before it folds, beside the cache
 * events pending in the three levels: TLB consultations, the predictor's
 * statistics, and the event counters that do not derive from those. */
typedef struct {
    long itlb_acc, itlb_miss, dtlb_acc, dtlb_miss;
    BranchDeltas predictor;
    long data_refs;
    long instructions, uops, dep_stall, fu_stall, ild_stall, resource_stall;
    long br_retired, br_taken, br_mispredicted, btb_misses;
} Charge;

static int
fold_tlb(PyObject *tlb_obj, long accesses, long misses)
{
    if (!accesses && !misses)
        return 0;
    PyObject *stats = PyObject_GetAttr(tlb_obj, s_stats);
    if (stats == NULL)
        return -1;
    int rc = 0;
    if (attr_add_long(stats, s_accesses, accesses) < 0
            || attr_add_long(stats, s_misses, misses) < 0)
        rc = -1;
    Py_DECREF(stats);
    return rc;
}

static int
fold_branch(PyObject *branch_obj, const BranchDeltas *bd)
{
    if (!bd->branches)
        return 0;
    PyObject *stats = PyObject_GetAttr(branch_obj, s_stats);
    if (stats == NULL)
        return -1;
    int rc = 0;
    if (attr_add_long(stats, s_branches, bd->branches) < 0
            || attr_add_long(stats, s_taken, bd->taken) < 0
            || attr_add_long(stats, s_mispredictions, bd->mispredictions) < 0
            || attr_add_long(stats, s_btb_hits, bd->btb_hits) < 0
            || attr_add_long(stats, s_btb_misses, bd->btb_misses) < 0)
        rc = -1;
    Py_DECREF(stats);
    return rc;
}

/* A charged operation that raised folds nothing; the next one must still
 * start from empty pending blocks. */
static void
machine_discard_pending(Machine *m)
{
    memset(&m->l1d->pend, 0, sizeof(Pending));
    memset(&m->l1i->pend, 0, sizeof(Pending));
    memset(&m->l2->pend, 0, sizeof(Pending));
}

/* Fold one charged operation, once: the event counters (those of the
 * caches read off the pending blocks -- the L2's per-port misses split
 * instruction fills from data traffic, exactly as the Python code's
 * ``l2.stats.misses`` deltas do), then each automaton's statistics.  Every
 * add commutes with everything the Python side does in between, the
 * OS-interrupt handler included (it touches the supervisor bank, the
 * ``invalidations`` statistic and the state objects), so folding at the end
 * of the operation changes no total. */
static int
machine_fold(Machine *m, const Charge *ch)
{
    const Pending *l1d = &m->l1d->pend, *l1i = &m->l1i->pend, *l2 = &m->l2->pend;
    long l1i_misses = l1i->misses[PORT_INSTRUCTION];
    long l1d_misses = l1d->misses[PORT_DATA_READ] + l1d->misses[PORT_DATA_WRITE];
    PyObject *user = m->user;
    if (dict_add(user, k_IFU_IFETCH, l1i->accesses[PORT_INSTRUCTION]) < 0
            || dict_add(user, k_IFU_IFETCH_MISS, l1i_misses) < 0
            || dict_add(user, k_L2_IFETCH, l1i_misses) < 0
            || dict_add(user, k_L2_IFETCH_MISS, l2->misses[PORT_INSTRUCTION]) < 0
            || dict_add(user, k_ITLB_MISS, ch->itlb_miss) < 0
            || dict_add(user, k_INST_RETIRED, ch->instructions) < 0
            || dict_add(user, k_INST_DECODED, ch->instructions) < 0
            || dict_add(user, k_UOPS_RETIRED, ch->uops) < 0
            || dict_add(user, k_DATA_MEM_REFS, ch->data_refs) < 0
            || dict_add(user, k_PARTIAL_RAT_STALLS, ch->dep_stall) < 0
            || dict_add(user, k_FU_CONTENTION_STALLS, ch->fu_stall) < 0
            || dict_add(user, k_ILD_STALL, ch->ild_stall) < 0
            || dict_add(user, k_RESOURCE_STALLS, ch->resource_stall) < 0
            || dict_add(user, k_DTLB_MISS, ch->dtlb_miss) < 0
            || dict_add(user, k_DCU_LINES_IN, l1d_misses) < 0
            || dict_add(user, k_L2_DATA_RQSTS, l1d_misses) < 0
            || dict_add(user, k_L2_DATA_MISS, l2->misses[PORT_DATA_READ]
                                             + l2->misses[PORT_DATA_WRITE]) < 0
            || dict_add(user, k_BR_INST_RETIRED, ch->br_retired) < 0
            || dict_add(user, k_BR_TAKEN_RETIRED, ch->br_taken) < 0
            || dict_add(user, k_BR_MISS_PRED_RETIRED, ch->br_mispredicted) < 0
            || dict_add(user, k_BTB_MISSES, ch->btb_misses) < 0
            || cache_fold_into(m->l1i, m->l1i_obj) < 0
            || cache_fold_into(m->l1d, m->l1d_obj) < 0
            || cache_fold_into(m->l2, m->l2_obj) < 0
            || fold_tlb(m->itlb_obj, ch->itlb_acc, ch->itlb_miss) < 0
            || fold_tlb(m->dtlb_obj, ch->dtlb_acc, ch->dtlb_miss) < 0
            || fold_branch(m->branch_obj, &ch->predictor) < 0) {
        machine_discard_pending(m);
        return -1;
    }
    return 0;
}

/* ``SimulatedProcessor.fetch_code_run``: ITLB per page transition, one L1I
 * line touch per line, per-run front-end stall accumulation (the stall is
 * added per run with misses: the float-accumulation order of the Python
 * code). */
static void
fetch_run_impl(Machine *m, Charge *ch, long line_addr, long count)
{
    if (count <= 0)
        return;
    CacheState *l1i = m->l1i;
    TLBState *itlb = m->itlb;
    long line_bytes = 1L << l1i->line_shift;
    long first_page = line_addr >> itlb->page_shift;
    long last_line = line_addr + (count - 1) * line_bytes;
    long miss_before = l1i->pend.misses[PORT_INSTRUCTION];
    long fill_before = m->l2->pend.misses[PORT_INSTRUCTION];
    if (first_page != m->last_instruction_page) {
        ch->itlb_acc++;
        ch->itlb_miss += tlb_touch(itlb, first_page);
    }
    long end_page = last_line >> itlb->page_shift;
    for (long page = first_page + 1; page <= end_page; page++) {
        ch->itlb_acc++;
        ch->itlb_miss += tlb_touch(itlb, page);
    }
    m->last_instruction_page = end_page;
    for (long k = 0; k < count; k++)
        cache_access_line(l1i, (line_addr + k * line_bytes) >> l1i->line_shift,
                          PORT_INSTRUCTION, 0);
    long l1i_run = l1i->pend.misses[PORT_INSTRUCTION] - miss_before;
    if (l1i_run) {
        long l2i_run = m->l2->pend.misses[PORT_INSTRUCTION] - fill_before;
        m->l1i_stall_cycles += (double)l1i_run * m->l1i_stall_cost
                               + (double)l2i_run * m->l2i_stall_cost;
    }
}

/* ``data_read_strided``/``data_write_strided`` body: DTLB once per page-run
 * of elements, L1D automaton per line.  Degenerate strides (<= 0) revisit
 * the same element with one DTLB consultation each, which is what the
 * scalar ``data_read`` loop does -- same totals, same state. */
static void
data_strided_impl(Machine *m, Charge *ch, long addr, long stride, long count,
                  long size, int write)
{
    long page_shift = m->dtlb->page_shift;
    int port = write ? PORT_DATA_WRITE : PORT_DATA_READ;
    long position = 0;
    ch->data_refs += count;
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
        ch->dtlb_acc += run;
        ch->dtlb_miss += tlb_touch(m->dtlb, element >> page_shift);
        cache_strided(m->l1d, element, stride, run, size, port, write);
        position += run;
    }
}

/* ---------------------------------------------------------------- object */

/* Take ``wrapper._native`` as a state object of ``type`` (new reference). */
static PyObject *
native_state_of(PyObject *wrapper, PyTypeObject *type)
{
    PyObject *state = PyObject_GetAttr(wrapper, s_native);
    if (state == NULL)
        return NULL;
    if (Py_TYPE(state) != type) {
        PyErr_Format(PyExc_TypeError,
                     "%R holds no native %s: native and pure-Python automata "
                     "are never mixed in one processor", wrapper, type->tp_name);
        Py_DECREF(state);
        return NULL;
    }
    return state;
}

/* Machine(l1d, l1i, l2, dtlb, itlb, branch_unit, l1i_stall_cost,
 *         l2i_stall_cost, user_counters, has_os, processor) */
static PyObject *
Machine_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *l1d, *l1i, *l2, *dtlb, *itlb, *branch, *user, *processor;
    double l1i_stall_cost, l2i_stall_cost;
    int has_os;
    if (check_no_keywords("Machine", kwargs) < 0
            || !PyArg_ParseTuple(args, "OOOOOOddO!pO", &l1d, &l1i, &l2, &dtlb,
                                 &itlb, &branch, &l1i_stall_cost,
                                 &l2i_stall_cost, &PyDict_Type, &user,
                                 &has_os, &processor))
        return NULL;
    Machine *m = (Machine *)type->tp_alloc(type, 0);
    if (m == NULL)
        return NULL;
#define STATE(field, ctype, wrapper, type_object)                          \
    (m->field = (ctype *)native_state_of((wrapper), &(type_object))) != NULL
    if (!(STATE(l1d, CacheState, l1d, CacheStateType)
            && STATE(l1i, CacheState, l1i, CacheStateType)
            && STATE(l2, CacheState, l2, CacheStateType)
            && STATE(dtlb, TLBState, dtlb, TLBStateType)
            && STATE(itlb, TLBState, itlb, TLBStateType)
            && STATE(btb, BTBState, branch, BTBStateType))) {
        Py_DECREF(m);
        return NULL;
    }
#undef STATE
    if (m->l1d->next != m->l2 || m->l1i->next != m->l2) {
        PyErr_SetString(PyExc_ValueError,
                        "both L1 caches must fill from the given L2");
        Py_DECREF(m);
        return NULL;
    }
#define OWN(field, obj) do { Py_INCREF(obj); m->field = (obj); } while (0)
    OWN(l1d_obj, l1d); OWN(l1i_obj, l1i); OWN(l2_obj, l2);
    OWN(dtlb_obj, dtlb); OWN(itlb_obj, itlb); OWN(branch_obj, branch);
    OWN(user, user);
#undef OWN
    m->l1i_stall_cost = l1i_stall_cost;
    m->l2i_stall_cost = l2i_stall_cost;
    m->has_os = has_os;
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
    Py_XDECREF(m->l1d_obj); Py_XDECREF(m->l1i_obj); Py_XDECREF(m->l2_obj);
    Py_XDECREF(m->dtlb_obj); Py_XDECREF(m->itlb_obj);
    Py_XDECREF(m->branch_obj);
    Py_XDECREF(m->user);
    Py_TYPE(self)->tp_free(self);
}

/* charged_strided(addr, stride, count, size, write) --
 * ``data_read_strided`` / ``data_write_strided`` (and their scalar
 * ``data_read``/``data_write`` special case) including DTLB, caches and
 * event counters; returns the L1D miss count. */
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
    Charge ch = {0};
    data_strided_impl(m, &ch, addr, stride, count, size, write ? 1 : 0);
    long misses = m->l1d->pend.misses[write ? PORT_DATA_WRITE : PORT_DATA_READ];
    if (machine_fold(m, &ch) < 0)
        return NULL;
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
    if (count <= 0)
        return PyLong_FromLong(0);
    Charge ch = {0};
    fetch_run_impl(m, &ch, line_addr, count);
    long misses = m->l1i->pend.misses[PORT_INSTRUCTION];
    if (machine_fold(m, &ch) < 0)
        return NULL;
    return PyLong_FromLong(misses);
}

/* conjunct(address, outcomes) -- the per-row branch loop of
 * ``visit_conjunct_batch``; returns (taken, mispredictions, btb_misses)
 * for the caller's ``count_branches``. */
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
    BranchDeltas bd = {0, 0, 0, 0, 0};
    for (Py_ssize_t i = 0; i < count; i++) {
        int taken = PyObject_IsTrue(PySequence_Fast_GET_ITEM(seq, i));
        if (taken < 0) {
            Py_DECREF(seq);
            return NULL;
        }
        btb_execute(m->btb, address, taken, 0, &bd);
    }
    Py_DECREF(seq);
    if (fold_branch(m->branch_obj, &bd) < 0)
        return NULL;
    return Py_BuildValue("(lll)", bd.taken, bd.mispredictions, bd.btb_misses);
}

static PyObject *Machine_context(Machine *m, PyObject *args);

static PyMemberDef Machine_members[] = {
    {"l1i_stall_cycles", T_DOUBLE, offsetof(Machine, l1i_stall_cycles), 0,
     "Accumulated front-end stall cycles (IFU_MEM_STALL before rounding)."},
    {"last_instruction_page", T_LONG, offsetof(Machine, last_instruction_page),
     0, "Page of the last fetched instruction line (-1: none)."},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef Machine_methods[] = {
    {"charged_strided", METHOD(Machine_charged_strided),
     METH_FASTCALL,
     "Charged strided data access (DTLB + caches + counters); returns misses."},
    {"fetch_run", METHOD(Machine_fetch_run), METH_FASTCALL,
     "Charged instruction-line run fetch (ITLB + L1I + counters); returns misses."},
    {"conjunct", METHOD(Machine_conjunct), METH_FASTCALL,
     "Per-row conjunct branch loop; returns (taken, mispredictions, btb_misses)."},
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
    .tp_doc = "One processor's native automata and charged operations.",
    .tp_methods = Machine_methods,
    .tp_members = Machine_members,
    .tp_new = Machine_new,
};

/* ======================================================================= */
/* Segment and Context: the executor's routine visit                        */
/* ======================================================================= */

typedef struct {
    long kind, addr, weight;
} Site;

typedef struct {
    PyObject_VAR_HEAD
    long base, hot, cold, instructions, uops, data_refs;
    long dep, fu, ild, total_stall, touches, bulk, bulk_taken, bulk_btb;
    double bulk_expected;
    Site sites[1];
} Segment;

static PyTypeObject SegmentType;

typedef struct {
    PyObject_HEAD
    Machine *machine;      /* owned */
    PyObject *site_state;  /* owned: the context's per-site state dict */
    long ws_base, ws_stride, ws_size, cold_base, cold_pool, line_bytes;
    /* Visit bookkeeping (``ExecutionContext._visit_counter`` and friends
     * read and write these members). */
    long visit_counter, cold_cursor, workspace_cursor;
    double bulk_carry;
} Context;

static PyTypeObject ContextType;

/* Machine.context(ws_base, ws_stride, ws_size, cold_base, cold_pool,
 *                 site_state, line_bytes) -> Context */
static PyObject *
Machine_context(Machine *m, PyObject *args)
{
    PyObject *site_state;
    long ws_base, ws_stride, ws_size, cold_base, cold_pool, line_bytes;
    if (!PyArg_ParseTuple(args, "lllllO!l", &ws_base, &ws_stride, &ws_size,
                          &cold_base, &cold_pool, &PyDict_Type, &site_state,
                          &line_bytes))
        return NULL;
    if (ws_stride <= 0 || ws_stride >= ws_size || cold_pool <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "need 0 < workspace stride < size and a cold pool");
        return NULL;
    }
    Context *c = (Context *)ContextType.tp_alloc(&ContextType, 0);
    if (c == NULL)
        return NULL;
    Py_INCREF(m);
    c->machine = m;
    Py_INCREF(site_state);
    c->site_state = site_state;
    c->ws_base = ws_base;
    c->ws_stride = ws_stride;
    c->ws_size = ws_size;
    c->cold_base = cold_base;
    c->cold_pool = cold_pool;
    c->line_bytes = line_bytes;
    return (PyObject *)c;
}

static void
Context_dealloc(PyObject *self)
{
    Context *c = (Context *)self;
    Py_XDECREF(c->machine);
    Py_XDECREF(c->site_state);
    Py_TYPE(self)->tp_free(self);
}

/* segment(handle_tuple) -> Segment; the handle is pure scalars:
 * (base, hot, cold, instructions, uops, data_refs, dep, fu, ild,
 *  total_stall, touches, bulk, bulk_taken, bulk_expected, bulk_btb,
 *  ((kind, address, weight), ...)) */
static PyObject *
Context_segment(Context *c, PyObject *seg)
{
    (void)c;
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
#define FIELD(i) PyLong_AsLong(PyTuple_GET_ITEM(seg, (i)))
    s->base = FIELD(0); s->hot = FIELD(1); s->cold = FIELD(2);
    s->instructions = FIELD(3); s->uops = FIELD(4); s->data_refs = FIELD(5);
    s->dep = FIELD(6); s->fu = FIELD(7); s->ild = FIELD(8);
    s->total_stall = FIELD(9); s->touches = FIELD(10); s->bulk = FIELD(11);
    s->bulk_taken = FIELD(12);
    s->bulk_expected = PyFloat_AsDouble(PyTuple_GET_ITEM(seg, 13));
    s->bulk_btb = FIELD(14);
#undef FIELD
    for (Py_ssize_t i = 0; i < n_sites && !PyErr_Occurred(); i++) {
        PyObject *site = PyTuple_GET_ITEM(sites, i);
        if (!PyTuple_Check(site) || PyTuple_GET_SIZE(site) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "a branch site must be (kind, address, weight)");
            break;
        }
        s->sites[i].kind = PyLong_AsLong(PyTuple_GET_ITEM(site, 0));
        s->sites[i].addr = PyLong_AsLong(PyTuple_GET_ITEM(site, 1));
        s->sites[i].weight = PyLong_AsLong(PyTuple_GET_ITEM(site, 2));
    }
    if (PyErr_Occurred()) {
        Py_DECREF(s);
        return NULL;
    }
    return (PyObject *)s;
}

/* ``ExecutionContext._touch_workspace``: cyclic strided 4-byte reads with
 * DTLB page-run bulking, one bulk run per wrap of the cursor. */
static void
workspace_impl(Machine *m, Charge *ch, Context *c, long touches)
{
    long cursor = c->workspace_cursor % c->ws_size;
    while (touches > 0) {
        long run = (c->ws_size - cursor + c->ws_stride - 1) / c->ws_stride;
        if (run > touches)
            run = touches;
        data_strided_impl(m, ch, c->ws_base + cursor, c->ws_stride, run, 4, 0);
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

/* Advance the per-site state of an alternating (kind 2) or rare (kind 3)
 * branch site in the context's dict; returns the outcome, -1 on error. */
static int
stateful_site_outcome(PyObject *site_state, long kind, long site_addr)
{
    PyObject *key = PyLong_FromLong(site_addr);
    if (key == NULL)
        return -1;
    PyObject *cur = PyDict_GetItemWithError(site_state, key);  /* borrowed */
    long value = cur == NULL ? 0 : PyLong_AsLong(cur);
    int rc = -1;
    if (!PyErr_Occurred()) {
        value = kind == 2 ? (value ^ 1) : value + 1;
        PyObject *obj = PyLong_FromLong(value);
        if (obj != NULL) {
            rc = PyDict_SetItem(site_state, key, obj);
            Py_DECREF(obj);
        }
    }
    Py_DECREF(key);
    if (rc < 0)
        return -1;
    return kind == 2 ? (value != 0) : (value % 64 == 0);
}

/* visit(segment, data_taken) -- one full ``ExecutionContext._visit_segment``:
 * hot + cold instruction fetch, fused routine counters, the OS-clock hook,
 * workspace touches, branch sites, bulk branches; one fold at the end.
 * Site kinds: 0 loop, 1 data, 2 alternating, 3 rare, 4 cold.
 * data_taken: None (pseudo-random data branches), or the outcome. */
static PyObject *
Context_visit(Context *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("visit", nargs, 2) < 0)
        return NULL;
    if (Py_TYPE(args[0]) != &SegmentType) {
        PyErr_SetString(PyExc_TypeError, "visit expects a Segment");
        return NULL;
    }
    const Segment *s = (const Segment *)args[0];
    int data_taken = args[1] == Py_None ? -1 : PyObject_IsTrue(args[1]);
    if (data_taken < 0 && args[1] != Py_None)
        return NULL;
    Machine *m = c->machine;
    Charge ch = {0};
    long visit_counter = ++c->visit_counter;

    /* Instruction side: hot lines, then the cold-code slice (a rotating
     * window of the cold pool; it may wrap once). */
    fetch_run_impl(m, &ch, s->base, s->hot);
    if (s->cold) {
        long cursor = c->cold_cursor % c->cold_pool;
        long run = c->cold_pool - cursor;
        if (run > s->cold)
            run = s->cold;
        fetch_run_impl(m, &ch, c->cold_base + cursor * c->line_bytes, run);
        fetch_run_impl(m, &ch, c->cold_base, s->cold - run);
        c->cold_cursor = (cursor + s->cold) % c->cold_pool;
    }

    /* Fused retirement / bulk-reference / resource-stall counters
     * (``charge_routine``). */
    ch.instructions = s->instructions;
    ch.uops = s->uops;
    ch.data_refs = s->data_refs;
    ch.dep_stall = s->dep;
    ch.fu_stall = s->fu;
    ch.ild_stall = s->ild;
    ch.resource_stall = s->total_stall;

    /* The OS-interference hook of ``charge_routine``, at the same point of
     * the visit: the clock advances by the retired instructions and any
     * interrupt that falls due is serviced in Python, through the wrappers
     * (``invalidate_fraction`` and the ITLB ``flush`` are one call each
     * into the state objects used here).  The handler resets
     * ``_last_instruction_page``, which is this Machine's member. */
    if (m->has_os) {
        PyObject *retired = PyLong_FromLong(s->instructions);
        if (retired == NULL)
            goto fail;
        PyObject *r = PyObject_CallMethodObjArgs(m->processor,
                                                 s_advance_os_clock,
                                                 retired, NULL);
        Py_DECREF(retired);
        if (r == NULL)
            goto fail;
        Py_DECREF(r);
    }

    /* Private working-set touches. */
    workspace_impl(m, &ch, c, s->touches);

    /* Branch sites: the predictor runs per site, the retirement counters
     * carry the site weights. */
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
            taken = stateful_site_outcome(c->site_state, kind, site_addr);
            if (taken < 0)
                goto fail;
        }
        else {  /* cold: the site address varies per visit */
            long offset = (long)(((unsigned long)visit_counter
                                  * HASH_CONSTANT) & 0x1FFFUL);
            exec_addr = site_addr + 64 + (offset & ~0x3FL);
            taken = pseudo_random_bit(visit_counter, exec_addr);
        }
        int mispredicted = btb_execute(m->btb, exec_addr, taken, kind == 0,
                                       &ch.predictor);
        ch.br_retired += weight;
        if (taken)
            ch.br_taken += weight;
        if (mispredicted)
            ch.br_mispredicted += weight;
    }
    if (ch.br_retired > 0)  /* ``count_branches`` ignores a zero population */
        ch.btb_misses = ch.predictor.btb_misses;
    else
        ch.br_retired = ch.br_taken = ch.br_mispredicted = 0;

    /* Bulk branch population (counters only; the predictor is untouched). */
    if (s->bulk > 0) {
        double expected = s->bulk_expected + c->bulk_carry;
        long bulk_mispredicted = (long)expected;  /* int(): truncation */
        c->bulk_carry = expected - (double)bulk_mispredicted;
        ch.br_retired += s->bulk;
        ch.br_taken += s->bulk_taken;
        ch.br_mispredicted += bulk_mispredicted;
        ch.btb_misses += s->bulk_btb;
    }

    if (machine_fold(m, &ch) < 0)
        return NULL;
    Py_RETURN_NONE;
fail:
    machine_discard_pending(m);
    return NULL;
}

/* workspace(touches) -- ``_touch_workspace`` alone (the vectorized
 * loop-body churn of ``visit_batch``). */
static PyObject *
Context_workspace(Context *c, PyObject *arg)
{
    long touches = PyLong_AsLong(arg);
    if (touches == -1 && PyErr_Occurred())
        return NULL;
    Charge ch = {0};
    workspace_impl(c->machine, &ch, c, touches);
    if (machine_fold(c->machine, &ch) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMemberDef Context_members[] = {
    {"visit_counter", T_LONG, offsetof(Context, visit_counter), 0,
     "Routine visits so far (seeds the pseudo-random branch outcomes)."},
    {"cold_cursor", T_LONG, offsetof(Context, cold_cursor), 0,
     "Next line of the cold-code pool."},
    {"workspace_cursor", T_LONG, offsetof(Context, workspace_cursor), 0,
     "Next byte offset of the cyclic workspace touches."},
    {"bulk_carry", T_DOUBLE, offsetof(Context, bulk_carry), 0,
     "Fractional remainder of the bulk-branch misprediction expectation."},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef Context_methods[] = {
    {"segment", METHOD(Context_segment), METH_O,
     "Parse a code-segment handle tuple into a Segment."},
    {"visit", METHOD(Context_visit), METH_FASTCALL,
     "One full executor-routine visit (fetch, counters, workspace, branches)."},
    {"workspace", METHOD(Context_workspace), METH_O,
     "Charged cyclic workspace touches (DTLB + caches + counters)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject ContextType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.Context",
    .tp_basicsize = sizeof(Context),
    .tp_dealloc = Context_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,  /* no tp_new: built by Machine.context */
    .tp_doc = "One ExecutionContext's visit constants over a Machine.",
    .tp_methods = Context_methods,
    .tp_members = Context_members,
};

static PyTypeObject SegmentType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.hardware._cachesim.Segment",
    .tp_basicsize = sizeof(Segment) - sizeof(Site),
    .tp_itemsize = sizeof(Site),
    .tp_flags = Py_TPFLAGS_DEFAULT,  /* no tp_new: built by Context.segment */
    .tp_doc = "One code segment's visit constants (plain scalars).",
};

/* ================================================================ module */

static struct PyModuleDef cachesim_module = {
    PyModuleDef_HEAD_INIT, "_cachesim",
    "Native hardware automata and charging fast paths.",
    -1, NULL, NULL, NULL, NULL, NULL,
};

static int
init_interned(void)
{
#define INTERN(var, text)                                  \
    do {                                                   \
        (var) = PyUnicode_InternFromString(text);          \
        if ((var) == NULL)                                 \
            return -1;                                     \
    } while (0)
    INTERN(s_stats, "stats");
    INTERN(s_native, "_native");
    INTERN(s_next_level, "next_level");
    INTERN(s_accesses, "accesses");
    INTERN(s_misses, "misses");
    INTERN(s_writebacks, "writebacks");
    INTERN(s_branches, "branches");
    INTERN(s_taken, "taken");
    INTERN(s_mispredictions, "mispredictions");
    INTERN(s_btb_hits, "btb_hits");
    INTERN(s_btb_misses, "btb_misses");
    INTERN(s_advance_os_clock, "_advance_os_clock");
    INTERN(k_IFU_IFETCH, "IFU_IFETCH");
    INTERN(k_IFU_IFETCH_MISS, "IFU_IFETCH_MISS");
    INTERN(k_L2_IFETCH, "L2_IFETCH");
    INTERN(k_L2_IFETCH_MISS, "L2_IFETCH_MISS");
    INTERN(k_ITLB_MISS, "ITLB_MISS");
    INTERN(k_INST_RETIRED, "INST_RETIRED");
    INTERN(k_INST_DECODED, "INST_DECODED");
    INTERN(k_UOPS_RETIRED, "UOPS_RETIRED");
    INTERN(k_DATA_MEM_REFS, "DATA_MEM_REFS");
    INTERN(k_PARTIAL_RAT_STALLS, "PARTIAL_RAT_STALLS");
    INTERN(k_FU_CONTENTION_STALLS, "FU_CONTENTION_STALLS");
    INTERN(k_ILD_STALL, "ILD_STALL");
    INTERN(k_RESOURCE_STALLS, "RESOURCE_STALLS");
    INTERN(k_DTLB_MISS, "DTLB_MISS");
    INTERN(k_DCU_LINES_IN, "DCU_LINES_IN");
    INTERN(k_L2_DATA_RQSTS, "L2_DATA_RQSTS");
    INTERN(k_L2_DATA_MISS, "L2_DATA_MISS");
    INTERN(k_BR_INST_RETIRED, "BR_INST_RETIRED");
    INTERN(k_BR_TAKEN_RETIRED, "BR_TAKEN_RETIRED");
    INTERN(k_BR_MISS_PRED_RETIRED, "BR_MISS_PRED_RETIRED");
    INTERN(k_BTB_MISSES, "BTB_MISSES");
#undef INTERN
    return 0;
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
    if (init_interned() < 0
            || add_type(module, "CacheState", &CacheStateType) < 0
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
