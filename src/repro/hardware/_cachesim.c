/* Native fast path for the set-associative cache automaton.
 *
 * This module accelerates the inner loops of ``repro.hardware.cache.Cache``
 * (``access_strided`` / ``access_lines`` and the scalar ``access``) without
 * owning any state: it manipulates the *same* Python ``list``-of-lists set
 * structures and per-set dirty ``set`` objects the pure-Python automaton
 * uses, via the CPython C API.  Every state transition -- membership probe,
 * MRU move, victim pop, dirty bookkeeping, L1->L2 fill, write-back -- is a
 * line-for-line transcription of the Python reference implementation, so
 * the cache contents, LRU orderings and statistics after any call are
 * byte-identical to the pure-Python path (asserted by the differential
 * hypothesis suite in ``tests/test_native_cache.py``).  The pure-Python
 * loops remain in place as the oracle and the fallback when this module is
 * not buildable.
 *
 * Statistics are *not* updated here: each entry point returns the counter
 * deltas as a tuple and the Python caller folds them into ``CacheStats``
 * (the adds commute, so applying them once per call changes no totals --
 * the same argument the span-charging fast path already relies on).
 *
 * Return tuple layout (all non-negative integers):
 *   (accesses, misses, self_writebacks,
 *    next_fill_accesses, next_fill_misses,
 *    next_write_accesses, next_write_misses, next_writebacks)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#ifndef CACHESIM_SOURCE_HASH
#define CACHESIM_SOURCE_HASH "dev"
#endif

typedef struct {
    PyObject *sets;   /* list of per-set MRU-ordered lists of line numbers */
    PyObject *dirty;  /* list of per-set Python sets of dirty line numbers */
    long set_mask;
    long assoc;
    int write_back;
} Level;

typedef struct {
    long accesses;
    long misses;
    long self_wb;
    long fill_acc;
    long fill_miss;
    long write_acc;
    long write_miss;
    long next_wb;
} Counts;

/* ----------------------------------------------------------- list helpers */

static Py_ssize_t
find_line(PyObject *ways, long line)
{
    Py_ssize_t n = PyList_GET_SIZE(ways);
    for (Py_ssize_t i = 0; i < n; i++) {
        long v = PyLong_AsLong(PyList_GET_ITEM(ways, i));
        if (v == line)
            return i;
    }
    return -1;
}

/* Move the item at index ``i`` to the front (MRU position). */
static int
mru_move(PyObject *ways, Py_ssize_t i)
{
    PyObject *item = PyList_GET_ITEM(ways, i);
    Py_INCREF(item);
    if (PyList_SetSlice(ways, i, i + 1, NULL) < 0) {
        Py_DECREF(item);
        return -1;
    }
    if (PyList_Insert(ways, 0, item) < 0) {
        Py_DECREF(item);
        return -1;
    }
    Py_DECREF(item);
    return 0;
}

static int
insert_front(PyObject *ways, long line)
{
    PyObject *obj = PyLong_FromLong(line);
    if (obj == NULL)
        return -1;
    int rc = PyList_Insert(ways, 0, obj);
    Py_DECREF(obj);
    return rc;
}

/* Pop the LRU (last) entry; stores its line number into *victim. */
static int
pop_last(PyObject *ways, long *victim)
{
    Py_ssize_t n = PyList_GET_SIZE(ways);
    *victim = PyLong_AsLong(PyList_GET_ITEM(ways, n - 1));
    return PyList_SetSlice(ways, n - 1, n, NULL);
}

static int
dirty_add(PyObject *dirty_list, long set_index, long line)
{
    PyObject *key = PyLong_FromLong(line);
    if (key == NULL)
        return -1;
    int rc = PySet_Add(PyList_GET_ITEM(dirty_list, set_index), key);
    Py_DECREF(key);
    return rc;
}

/* Discard ``line`` from the set; returns 1 if it was present, 0 if not,
 * -1 on error -- exactly the "if victim in dirty: discard" idiom. */
static int
dirty_discard(PyObject *dirty_list, long set_index, long line)
{
    PyObject *key = PyLong_FromLong(line);
    if (key == NULL)
        return -1;
    int rc = PySet_Discard(PyList_GET_ITEM(dirty_list, set_index), key);
    Py_DECREF(key);
    return rc;
}

/* ------------------------------------------------------- level automaton */

/* ``Cache._miss_line`` for a cache with no next level (the L2, or a
 * standalone cache): victim selection, write-back bookkeeping, fill. */
static int
last_level_miss_line(Level *lvl, Counts *counts, long line, int write, int is_next)
{
    long set_index = line & lvl->set_mask;
    PyObject *ways = PyList_GET_ITEM(lvl->sets, set_index);
    if (PyList_GET_SIZE(ways) >= lvl->assoc) {
        long victim;
        if (pop_last(ways, &victim) < 0)
            return -1;
        int was_dirty = dirty_discard(lvl->dirty, set_index, victim);
        if (was_dirty < 0)
            return -1;
        if (was_dirty) {
            if (is_next)
                counts->next_wb++;
            else
                counts->self_wb++;
        }
    }
    if (insert_front(ways, line) < 0)
        return -1;
    if (write && lvl->write_back)
        return dirty_add(lvl->dirty, set_index, line);
    return 0;
}

/* ``Cache._access_line`` on the *next* level (used for L1 victim
 * write-backs and write-through forwarding): counts on the write port. */
static int
next_level_write_access(Level *next, Counts *counts, long line)
{
    counts->write_acc++;
    long set_index = line & next->set_mask;
    PyObject *ways = PyList_GET_ITEM(next->sets, set_index);
    Py_ssize_t i = find_line(ways, line);
    if (i >= 0) {
        if (i > 0 && mru_move(ways, i) < 0)
            return -1;
        return dirty_add(next->dirty, set_index, line);
    }
    counts->write_miss++;
    return last_level_miss_line(next, counts, line, 1, 1);
}

/* ``Cache._miss_line`` on the first level, including the next-level fill
 * request and the victim write-back. */
static int
miss_line(Level *self, Level *next, Counts *counts, long line, int write)
{
    if (next != NULL) {
        /* Fill request: a read regardless of the original direction;
         * the port split (fill vs write traffic) is applied by the
         * Python caller, which knows the fill port. */
        counts->fill_acc++;
        long nset = line & next->set_mask;
        PyObject *nways = PyList_GET_ITEM(next->sets, nset);
        Py_ssize_t i = find_line(nways, line);
        if (i >= 0) {
            if (i > 0 && mru_move(nways, i) < 0)
                return -1;
        }
        else {
            counts->fill_miss++;
            if (last_level_miss_line(next, counts, line, 0, 1) < 0)
                return -1;
        }
    }
    long set_index = line & self->set_mask;
    PyObject *ways = PyList_GET_ITEM(self->sets, set_index);
    if (PyList_GET_SIZE(ways) >= self->assoc) {
        long victim;
        if (pop_last(ways, &victim) < 0)
            return -1;
        int was_dirty = dirty_discard(self->dirty, set_index, victim);
        if (was_dirty < 0)
            return -1;
        if (was_dirty) {
            counts->self_wb++;
            if (next != NULL && next_level_write_access(next, counts, victim) < 0)
                return -1;
        }
    }
    if (insert_front(ways, line) < 0)
        return -1;
    if (write) {
        if (self->write_back)
            return dirty_add(self->dirty, set_index, line);
        if (next != NULL)
            return next_level_write_access(next, counts, line);
    }
    return 0;
}

/* One line touch on the first level (hit fast path + miss machine). */
static int
touch_line(Level *self, Level *next, Counts *counts, long line, int port, int write)
{
    (void)port;
    counts->accesses++;
    long set_index = line & self->set_mask;
    PyObject *ways = PyList_GET_ITEM(self->sets, set_index);
    Py_ssize_t i = find_line(ways, line);
    if (i >= 0) {
        if (i > 0 && mru_move(ways, i) < 0)
            return -1;
        if (write)
            return dirty_add(self->dirty, set_index, line);
        return 0;
    }
    counts->misses++;
    return miss_line(self, next, counts, line, write);
}

/* ------------------------------------------------------- argument parsing */

static int
unpack_level(PyObject *obj, Level *lvl)
{
    /* ``(sets, dirty, set_mask, assoc, write_back)`` prebuilt per Cache. */
    if (!PyTuple_Check(obj) || PyTuple_GET_SIZE(obj) != 5) {
        PyErr_SetString(PyExc_TypeError, "level must be a 5-tuple");
        return -1;
    }
    lvl->sets = PyTuple_GET_ITEM(obj, 0);
    lvl->dirty = PyTuple_GET_ITEM(obj, 1);
    lvl->set_mask = PyLong_AsLong(PyTuple_GET_ITEM(obj, 2));
    lvl->assoc = PyLong_AsLong(PyTuple_GET_ITEM(obj, 3));
    lvl->write_back = (int)PyLong_AsLong(PyTuple_GET_ITEM(obj, 4));
    if (PyErr_Occurred())
        return -1;
    return 0;
}

static PyObject *
build_result(const Counts *counts)
{
    return Py_BuildValue("(llllllll)", counts->accesses, counts->misses,
                         counts->self_wb, counts->fill_acc, counts->fill_miss,
                         counts->write_acc, counts->write_miss, counts->next_wb);
}

/* --------------------------------------------------------- entry points */

/* strided(self, next_or_None, line_shift, addr, stride, count, size,
 *         port, write) -- mirrors ``Cache.access_strided``. */
static PyObject *
cachesim_strided(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *self_obj, *next_obj;
    long shift, addr, stride, count, size;
    int port, write;
    if (!PyArg_ParseTuple(args, "OOlllllii", &self_obj, &next_obj, &shift,
                          &addr, &stride, &count, &size, &port, &write))
        return NULL;
    Level self_lvl, next_lvl;
    Level *next = NULL;
    if (unpack_level(self_obj, &self_lvl) < 0)
        return NULL;
    if (next_obj != Py_None) {
        if (unpack_level(next_obj, &next_lvl) < 0)
            return NULL;
        next = &next_lvl;
    }
    Counts counts = {0, 0, 0, 0, 0, 0, 0, 0};
    long span = (size > 1 ? size : 1) - 1;
    long element = addr;
    for (long k = 0; k < count; k++) {
        long first = element >> shift;
        long last = (element + span) >> shift;
        element += stride;
        for (long line = first; line <= last; line++) {
            if (touch_line(&self_lvl, next, &counts, line, port, write) < 0)
                return NULL;
        }
    }
    return build_result(&counts);
}

/* lines(self, next_or_None, line_shift, start_addr, step, count, port,
 *       write) -- mirrors ``Cache.access_lines`` over an address range. */
static PyObject *
cachesim_lines(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *self_obj, *next_obj;
    long shift, start, step, count;
    int port, write;
    if (!PyArg_ParseTuple(args, "OOllllii", &self_obj, &next_obj, &shift,
                          &start, &step, &count, &port, &write))
        return NULL;
    Level self_lvl, next_lvl;
    Level *next = NULL;
    if (unpack_level(self_obj, &self_lvl) < 0)
        return NULL;
    if (next_obj != Py_None) {
        if (unpack_level(next_obj, &next_lvl) < 0)
            return NULL;
        next = &next_lvl;
    }
    Counts counts = {0, 0, 0, 0, 0, 0, 0, 0};
    long addr = start;
    for (long k = 0; k < count; k++) {
        if (touch_line(&self_lvl, next, &counts, addr >> shift, port, write) < 0)
            return NULL;
        addr += step;
    }
    return build_result(&counts);
}

/* ====================================================================== */
/* Charged fast paths: processor- and executor-level loops.                */
/*                                                                        */
/* The entry points below move whole *charging* operations (not just the  */
/* cache automaton) into C: an executor routine visit, a charged strided  */
/* data read/write (DTLB + caches + event counters), an instruction-run   */
/* fetch, and the per-row conjunct branch loop.  They manipulate the same */
/* Python state the pure-Python code does -- counter dicts, TLB           */
/* OrderedDicts, BTB entry lists, cache set lists -- via the C API, so    */
/* every simulated count and every piece of microarchitectural state is   */
/* identical to the pure-Python oracle (asserted by the differential      */
/* suites; the pure-Python paths remain in place as oracle and fallback). */
/* ====================================================================== */

#define HASH_CONSTANT 2654435761UL

/* Interned attribute / counter-key strings (created at module init). */
static PyObject *s_stats, *s_accesses, *s_misses, *s_writebacks;
static PyObject *s_branches, *s_taken, *s_mispredictions, *s_btb_hits, *s_btb_misses;
static PyObject *s_tag, *s_history, *s_counters;
static PyObject *s_move_to_end, *s_popitem;
static PyObject *s_visit_counter, *s_cold_cursor, *s_workspace_cursor, *s_bulk_carry;
static PyObject *s_l1i_stall, *s_last_page, *s_advance_os_clock;
static PyObject *k_IFU_IFETCH, *k_IFU_IFETCH_MISS, *k_L2_IFETCH, *k_L2_IFETCH_MISS;
static PyObject *k_ITLB_MISS, *k_INST_RETIRED, *k_INST_DECODED, *k_UOPS_RETIRED;
static PyObject *k_DATA_MEM_REFS, *k_PARTIAL_RAT_STALLS, *k_FU_CONTENTION_STALLS;
static PyObject *k_ILD_STALL, *k_RESOURCE_STALLS, *k_DTLB_MISS, *k_DCU_LINES_IN;
static PyObject *k_L2_DATA_RQSTS, *k_L2_DATA_MISS, *k_BR_INST_RETIRED;
static PyObject *k_BR_TAKEN_RETIRED, *k_BR_MISS_PRED_RETIRED, *k_BTB_MISSES;

/* The processor-level constant block built by SimulatedProcessor (stable
 * objects only: stats objects rebind on reset_stats and are re-fetched per
 * call through GetAttr). */
typedef struct {
    PyObject *l1d_obj, *l1i_obj, *l2_obj;
    Level l1d, l1i, l2;
    long l1d_shift, l1i_shift;
    PyObject *dtlb_obj, *itlb_obj, *dtlb_entries, *itlb_entries;
    long dtlb_shift, itlb_shift, dtlb_cap, itlb_cap;
    PyObject *branch_obj, *btb_sets;
    long btb_set_mask, history_mask, history_bits, btb_assoc;
    int static_backward;
    PyObject *entry_class;
    double l1i_stall_cost, l2i_stall_cost;
    PyObject *user;       /* counters.user dict */
    int has_os;           /* an OS-interference model is attached */
    PyObject *processor;  /* SimulatedProcessor (stall / last-page attrs, the
                           * OS-clock hook); NOT part of the state tuple --
                           * borrowed, see "packed constant blocks" below */
} Machine;

typedef struct {
    long branches, taken, mispred, btb_hits, btb_misses;
} BranchDeltas;

static int
unpack_machine(PyObject *state, Machine *m)
{
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != 28) {
        PyErr_SetString(PyExc_TypeError, "machine state must be a 28-tuple");
        return -1;
    }
#define ITEM(i) PyTuple_GET_ITEM(state, (i))
    m->l1d_obj = ITEM(0); m->l1i_obj = ITEM(1); m->l2_obj = ITEM(2);
    if (unpack_level(ITEM(3), &m->l1d) < 0) return -1;
    if (unpack_level(ITEM(4), &m->l1i) < 0) return -1;
    if (unpack_level(ITEM(5), &m->l2) < 0) return -1;
    m->l1d_shift = PyLong_AsLong(ITEM(6));
    m->l1i_shift = PyLong_AsLong(ITEM(7));
    m->dtlb_obj = ITEM(8); m->itlb_obj = ITEM(9);
    m->dtlb_entries = ITEM(10); m->itlb_entries = ITEM(11);
    m->dtlb_shift = PyLong_AsLong(ITEM(12));
    m->itlb_shift = PyLong_AsLong(ITEM(13));
    m->dtlb_cap = PyLong_AsLong(ITEM(14));
    m->itlb_cap = PyLong_AsLong(ITEM(15));
    m->branch_obj = ITEM(16); m->btb_sets = ITEM(17);
    m->btb_set_mask = PyLong_AsLong(ITEM(18));
    m->history_mask = PyLong_AsLong(ITEM(19));
    m->static_backward = (int)PyLong_AsLong(ITEM(20));
    m->history_bits = PyLong_AsLong(ITEM(21));
    m->btb_assoc = PyLong_AsLong(ITEM(22));
    m->entry_class = ITEM(23);
    m->l1i_stall_cost = PyFloat_AsDouble(ITEM(24));
    m->l2i_stall_cost = PyFloat_AsDouble(ITEM(25));
    m->user = ITEM(26);
    m->has_os = (int)PyLong_AsLong(ITEM(27));
    m->processor = NULL;
#undef ITEM
    if (PyErr_Occurred())
        return -1;
    return 0;
}

/* ----------------------------------------------------- small fold helpers */

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

static double
get_double_attr(PyObject *obj, PyObject *name, int *err)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) { *err = 1; return 0.0; }
    double out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (out == -1.0 && PyErr_Occurred()) { *err = 1; return 0.0; }
    return out;
}

static int
set_double_attr(PyObject *obj, PyObject *name, double value)
{
    PyObject *v = PyFloat_FromDouble(value);
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

static int
list_add_long(PyObject *list, Py_ssize_t index, long delta)
{
    if (!delta)
        return 0;
    long cur = PyLong_AsLong(PyList_GET_ITEM(list, index));
    if (cur == -1 && PyErr_Occurred())
        return -1;
    PyObject *obj = PyLong_FromLong(cur + delta);
    if (obj == NULL)
        return -1;
    PyList_SetItem(list, index, obj);  /* steals obj */
    return 0;
}

/* Fold accesses/misses/writebacks into ``cache.stats`` (re-fetched per call:
 * reset_stats rebinds the stats object). */
static int
fold_cache(PyObject *cache_obj, int port, long accesses, long misses, long wb)
{
    if (!accesses && !misses && !wb)
        return 0;
    PyObject *stats = PyObject_GetAttr(cache_obj, s_stats);
    if (stats == NULL)
        return -1;
    int rc = -1;
    PyObject *acc_list = NULL, *miss_list = NULL;
    acc_list = PyObject_GetAttr(stats, s_accesses);
    if (acc_list == NULL) goto done;
    miss_list = PyObject_GetAttr(stats, s_misses);
    if (miss_list == NULL) goto done;
    if (list_add_long(acc_list, port, accesses) < 0) goto done;
    if (list_add_long(miss_list, port, misses) < 0) goto done;
    if (attr_add_long(stats, s_writebacks, wb) < 0) goto done;
    rc = 0;
done:
    Py_XDECREF(acc_list);
    Py_XDECREF(miss_list);
    Py_DECREF(stats);
    return rc;
}

/* Fold the next-level (L2) deltas of a Counts block, exactly as
 * ``Cache._apply_native`` does on the Python side. */
static int
fold_next(PyObject *l2_obj, int fill_port, const Counts *c)
{
    if (!c->fill_acc && !c->fill_miss && !c->write_acc && !c->write_miss
            && !c->next_wb)
        return 0;
    PyObject *stats = PyObject_GetAttr(l2_obj, s_stats);
    if (stats == NULL)
        return -1;
    int rc = -1;
    PyObject *acc_list = NULL, *miss_list = NULL;
    acc_list = PyObject_GetAttr(stats, s_accesses);
    if (acc_list == NULL) goto done;
    miss_list = PyObject_GetAttr(stats, s_misses);
    if (miss_list == NULL) goto done;
    if (list_add_long(acc_list, fill_port, c->fill_acc) < 0) goto done;
    if (list_add_long(miss_list, fill_port, c->fill_miss) < 0) goto done;
    if (list_add_long(acc_list, 1, c->write_acc) < 0) goto done;
    if (list_add_long(miss_list, 1, c->write_miss) < 0) goto done;
    if (attr_add_long(stats, s_writebacks, c->next_wb) < 0) goto done;
    rc = 0;
done:
    Py_XDECREF(acc_list);
    Py_XDECREF(miss_list);
    Py_DECREF(stats);
    return rc;
}

static int
fold_tlb(PyObject *tlb_obj, long accesses, long misses)
{
    if (!accesses && !misses)
        return 0;
    PyObject *stats = PyObject_GetAttr(tlb_obj, s_stats);
    if (stats == NULL)
        return -1;
    int rc = 0;
    if (attr_add_long(stats, s_accesses, accesses) < 0)
        rc = -1;
    else if (attr_add_long(stats, s_misses, misses) < 0)
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
    int rc = -1;
    if (attr_add_long(stats, s_branches, bd->branches) < 0) goto done;
    if (attr_add_long(stats, s_taken, bd->taken) < 0) goto done;
    if (attr_add_long(stats, s_mispredictions, bd->mispred) < 0) goto done;
    if (attr_add_long(stats, s_btb_hits, bd->btb_hits) < 0) goto done;
    if (attr_add_long(stats, s_btb_misses, bd->btb_misses) < 0) goto done;
    rc = 0;
done:
    Py_DECREF(stats);
    return rc;
}

/* --------------------------------------------------------- TLB automaton */

/* One ``TLB.access``/``access_bulk`` state transition on the OrderedDict
 * (mutating method calls go through the object so the LRU linkage stays
 * consistent; membership/size use the dict fast paths).  The access count
 * is accumulated by the caller. */
static int
tlb_touch(PyObject *entries, long capacity, long page, long *miss)
{
    PyObject *key = PyLong_FromLong(page);
    if (key == NULL)
        return -1;
    int has = PyDict_Contains(entries, key);
    if (has < 0) {
        Py_DECREF(key);
        return -1;
    }
    if (has) {
        PyObject *r = PyObject_CallMethodObjArgs(entries, s_move_to_end, key, NULL);
        Py_DECREF(key);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    (*miss)++;
    int rc = PyObject_SetItem(entries, key, Py_None);
    Py_DECREF(key);
    if (rc < 0)
        return -1;
    if (PyDict_Size(entries) > capacity) {
        PyObject *r = PyObject_CallMethodObjArgs(entries, s_popitem, Py_False, NULL);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
}

/* ---------------------------------------------------- instruction fetches */

/* ``SimulatedProcessor.fetch_code_run``: ITLB per page transition, one L1I
 * line touch per line, per-run front-end stall accumulation.  Counter
 * deltas accumulate into *ic / *itlb_*; the stall is added per run with
 * misses (the exact float-accumulation order of the Python code). */
static int
fetch_run_impl(Machine *m, long line_addr, long count, Counts *ic,
               long *itlb_acc, long *itlb_miss, long *last_page, double *stall)
{
    if (count <= 0)
        return 0;
    long line_bytes = 1L << m->l1i_shift;
    long first_page = line_addr >> m->itlb_shift;
    long last_line = line_addr + (count - 1) * line_bytes;
    long miss_before = ic->misses;
    long fill_before = ic->fill_miss;
    if (first_page != *last_page) {
        (*itlb_acc)++;
        if (tlb_touch(m->itlb_entries, m->itlb_cap, first_page, itlb_miss) < 0)
            return -1;
    }
    long end_page = last_line >> m->itlb_shift;
    for (long page = first_page + 1; page <= end_page; page++) {
        (*itlb_acc)++;
        if (tlb_touch(m->itlb_entries, m->itlb_cap, page, itlb_miss) < 0)
            return -1;
    }
    *last_page = end_page;
    for (long k = 0; k < count; k++) {
        long line = (line_addr + k * line_bytes) >> m->l1i_shift;
        if (touch_line(&m->l1i, &m->l2, ic, line, 2, 0) < 0)
            return -1;
    }
    long l1i_run = ic->misses - miss_before;
    if (l1i_run) {
        long l2i_run = ic->fill_miss - fill_before;
        *stall += (double)l1i_run * m->l1i_stall_cost
                  + (double)l2i_run * m->l2i_stall_cost;
    }
    return 0;
}

/* Fold the instruction-side counter/statistics deltas of one or more fetch
 * runs (the adds commute across runs, exactly like the per-call adds of
 * ``fetch_code_run``). */
static int
fold_fetch(Machine *m, const Counts *ic, long itlb_acc, long itlb_miss)
{
    if (dict_add(m->user, k_IFU_IFETCH, ic->accesses) < 0) return -1;
    if (dict_add(m->user, k_IFU_IFETCH_MISS, ic->misses) < 0) return -1;
    if (dict_add(m->user, k_L2_IFETCH, ic->misses) < 0) return -1;
    if (dict_add(m->user, k_L2_IFETCH_MISS, ic->fill_miss) < 0) return -1;
    if (dict_add(m->user, k_ITLB_MISS, itlb_miss) < 0) return -1;
    if (fold_cache(m->l1i_obj, 2, ic->accesses, ic->misses, ic->self_wb) < 0)
        return -1;
    if (fold_next(m->l2_obj, 2, ic) < 0) return -1;
    if (fold_tlb(m->itlb_obj, itlb_acc, itlb_miss) < 0) return -1;
    return 0;
}

/* ---------------------------------------------------------- data accesses */

/* ``SimulatedProcessor.data_read_strided``/``data_write_strided`` body:
 * DTLB once per page-run of elements, L1D automaton per line.  Degenerate
 * strides (<= 0) fall back to one DTLB consultation per element, which is
 * what the scalar ``data_read`` loop does -- same totals, same state. */
static int
data_strided_impl(Machine *m, long addr, long stride, long count, long size,
                  int write, Counts *dc, long *dtlb_acc, long *dtlb_miss)
{
    long span = (size > 1 ? size : 1) - 1;
    int port = write ? 1 : 0;
    long position = 0;
    while (position < count) {
        /* Degenerate strides (<= 0) revisit the same element, exactly like
         * the scalar fallback loop of the Python strided paths. */
        long element = stride > 0 ? addr + position * stride : addr;
        long run = 1;
        if (stride > 0) {
            long page_end = ((element >> m->dtlb_shift) + 1) << m->dtlb_shift;
            run = (page_end - element + stride - 1) / stride;
            if (run > count - position)
                run = count - position;
            if (run < 1)
                run = 1;
        }
        *dtlb_acc += run;
        if (tlb_touch(m->dtlb_entries, m->dtlb_cap,
                      element >> m->dtlb_shift, dtlb_miss) < 0)
            return -1;
        for (long r = 0; r < run; r++) {
            long e = element + r * stride;
            long first = e >> m->l1d_shift;
            long last = (e + span) >> m->l1d_shift;
            for (long line = first; line <= last; line++) {
                if (touch_line(&m->l1d, &m->l2, dc, line, port, write) < 0)
                    return -1;
            }
        }
        position += run;
    }
    return 0;
}

/* Fold the data-side counter/statistics deltas (the counter adds of
 * ``data_read``/``data_read_strided``; fills to the L2 land on the data
 * read port, exactly as ``_apply_native`` routes them). */
static int
fold_data(Machine *m, const Counts *dc, long elements, long dtlb_acc,
          long dtlb_miss, int port)
{
    if (dict_add(m->user, k_DATA_MEM_REFS, elements) < 0) return -1;
    if (dict_add(m->user, k_DTLB_MISS, dtlb_miss) < 0) return -1;
    if (dc->misses) {
        if (dict_add(m->user, k_DCU_LINES_IN, dc->misses) < 0) return -1;
        if (dict_add(m->user, k_L2_DATA_RQSTS, dc->misses) < 0) return -1;
        if (dict_add(m->user, k_L2_DATA_MISS,
                     dc->fill_miss + dc->write_miss) < 0) return -1;
    }
    if (fold_cache(m->l1d_obj, port, dc->accesses, dc->misses, dc->self_wb) < 0)
        return -1;
    if (fold_next(m->l2_obj, 0, dc) < 0) return -1;
    if (fold_tlb(m->dtlb_obj, dtlb_acc, dtlb_miss) < 0) return -1;
    return 0;
}

/* ------------------------------------------------------ branch prediction */

/* ``_BTBEntry.update``: saturate the 2-bit counter, shift the history. */
static int
entry_update(PyObject *entry, long history, long counter, int taken,
             long history_mask)
{
    long updated = counter;
    if (taken) {
        if (counter < 3)
            updated = counter + 1;
    }
    else if (counter > 0) {
        updated = counter - 1;
    }
    if (updated != counter) {
        PyObject *counters = PyObject_GetAttr(entry, s_counters);
        if (counters == NULL)
            return -1;
        PyObject *obj = PyLong_FromLong(updated);
        if (obj == NULL) {
            Py_DECREF(counters);
            return -1;
        }
        PyList_SetItem(counters, history, obj);  /* steals */
        Py_DECREF(counters);
    }
    long new_history = ((history << 1) | (taken ? 1 : 0)) & history_mask;
    return set_long_attr(entry, s_history, new_history);
}

/* ``BranchPredictor.execute``; returns 1 mispredicted / 0 predicted /
 * -1 error, with the stats deltas accumulated into *bd. */
static int
branch_exec(Machine *m, long site_addr, int taken, int backward,
            BranchDeltas *bd)
{
    bd->branches++;
    if (taken)
        bd->taken++;
    long site = site_addr >> 4;
    long set_index = site & m->btb_set_mask;
    PyObject *ways = PyList_GET_ITEM(m->btb_sets, set_index);
    Py_ssize_t n = PyList_GET_SIZE(ways);
    Py_ssize_t found = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        int err = 0;
        long tag = get_long_attr(PyList_GET_ITEM(ways, i), s_tag, &err);
        if (err)
            return -1;
        if (tag == site) {
            found = i;
            break;
        }
    }
    int prediction;
    if (found >= 0) {
        bd->btb_hits++;
        PyObject *entry = PyList_GET_ITEM(ways, found);
        Py_INCREF(entry);  /* keep alive across the MRU move */
        int err = 0;
        long history = get_long_attr(entry, s_history, &err);
        long counter = 0;
        if (!err) {
            PyObject *counters = PyObject_GetAttr(entry, s_counters);
            if (counters == NULL) {
                err = 1;
            }
            else {
                counter = PyLong_AsLong(PyList_GET_ITEM(counters, history));
                Py_DECREF(counters);
                if (counter == -1 && PyErr_Occurred())
                    err = 1;
            }
        }
        if (err || (found > 0 && mru_move(ways, found) < 0)
                || entry_update(entry, history, counter, taken,
                                m->history_mask) < 0) {
            Py_DECREF(entry);
            return -1;
        }
        Py_DECREF(entry);
        prediction = counter >= 2;
    }
    else {
        bd->btb_misses++;
        prediction = m->static_backward ? backward : 0;
        if (taken) {
            PyObject *entry = PyObject_CallFunction(m->entry_class, "ll",
                                                    site, m->history_bits);
            if (entry == NULL)
                return -1;
            /* Fresh entry: history 0, counters[0] weakly taken (2). */
            if (entry_update(entry, 0, 2, taken, m->history_mask) < 0
                    || PyList_Insert(ways, 0, entry) < 0) {
                Py_DECREF(entry);
                return -1;
            }
            Py_DECREF(entry);
            Py_ssize_t size = PyList_GET_SIZE(ways);
            if (size > m->btb_assoc
                    && PyList_SetSlice(ways, size - 1, size, NULL) < 0)
                return -1;
        }
    }
    int mispredicted = prediction != (taken ? 1 : 0);
    if (mispredicted)
        bd->mispred++;
    return mispredicted;
}

/* ``ExecutionContext._pseudo_random_bit`` (Knuth multiplicative hash). */
static int
pseudo_random_bit(long visit_counter, long salt)
{
    unsigned long value =
        ((unsigned long)(visit_counter + salt) * HASH_CONSTANT) & 0xFFFFFFFFUL;
    return (int)((value >> 17) & 1UL);
}

/* ------------------------------------------------------ workspace touches */

/* ``ExecutionContext._touch_workspace``: cyclic strided 4-byte reads with
 * DTLB page-run bulking.  Requires 0 < stride < size (the Python wrapper
 * falls back otherwise); produces the same totals and microarchitectural
 * state as both the span and the per-address charging loops. */
static int
workspace_impl(Machine *m, long base, long stride, long size, long touches,
               long *cursor, Counts *dc, long *dtlb_acc, long *dtlb_miss)
{
    long remaining = touches;
    while (remaining > 0) {
        long run = (size - *cursor + stride - 1) / stride;
        if (run > remaining)
            run = remaining;
        if (data_strided_impl(m, base + *cursor, stride, run, 4, 0,
                              dc, dtlb_acc, dtlb_miss) < 0)
            return -1;
        *cursor = (*cursor + run * stride) % size;
        remaining -= run;
    }
    return 0;
}

/* ------------------------------------------------- packed constant blocks */

/* The per-call state blocks are parsed ONCE into C structs wrapped in
 * capsules (``pack_machine``/``pack_ctx``/``pack_segment``): the hot entry
 * points then run with zero per-call unpacking.
 *
 * Ownership runs one way, processor -> capsule -> state tuple -> component
 * objects.  The machine box owns its source tuple, so the component
 * pointers parsed out of it can never dangle, and the tuple holds only
 * objects that do not refer back to the processor.  The processor itself is
 * *borrowed*: a capsule is not tracked by the cycle collector, so an owned
 * reference here would be a processor -> capsule -> processor cycle nobody
 * can break, and every session would live for the life of the process.  The
 * borrow cannot dangle because the processor owns the machine capsule, and
 * every context capsule is owned by a context that holds the processor. */

static const char *MACHINE_CAPSULE = "repro._cachesim.machine";
static const char *CTX_CAPSULE = "repro._cachesim.ctx";
static const char *SEG_CAPSULE = "repro._cachesim.segment";

typedef struct {
    Machine m;
    PyObject *owner;  /* the source state tuple, owned */
} MachineBox;

typedef struct {
    Machine m;            /* copied out of the machine box */
    PyObject *ctx;        /* borrowed: the context owns this capsule */
    PyObject *site_state; /* borrowed: the context's _site_state dict */
    long ws_base, ws_stride, ws_size, cold_base, cold_pool, line_bytes;
    PyObject *owner;      /* the machine capsule, owned */
} CtxBox;

typedef struct {
    long kind, addr, weight;
} SiteC;

typedef struct {
    long base, hot, cold, instructions, uops, data_refs;
    long dep, fu, ild, total_stall, touches, bulk, bulk_taken, bulk_btb;
    double bulk_expected;
    Py_ssize_t n_sites;
    SiteC sites[];
} SegBox;

static void
machine_capsule_free(PyObject *capsule)
{
    MachineBox *box = PyCapsule_GetPointer(capsule, MACHINE_CAPSULE);
    if (box != NULL) {
        Py_XDECREF(box->owner);
        PyMem_Free(box);
    }
}

static void
ctx_capsule_free(PyObject *capsule)
{
    CtxBox *box = PyCapsule_GetPointer(capsule, CTX_CAPSULE);
    if (box != NULL) {
        Py_XDECREF(box->owner);
        PyMem_Free(box);
    }
}

static void
seg_capsule_free(PyObject *capsule)
{
    SegBox *box = PyCapsule_GetPointer(capsule, SEG_CAPSULE);
    PyMem_Free(box);
}

static Machine *
machine_arg(PyObject *capsule)
{
    MachineBox *box = PyCapsule_GetPointer(capsule, MACHINE_CAPSULE);
    return box == NULL ? NULL : &box->m;
}

/* pack_machine(state_tuple, processor) -> capsule; the processor is
 * borrowed (it owns the capsule), the tuple is owned. */
static PyObject *
cachesim_pack_machine(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *state, *processor;
    if (!PyArg_ParseTuple(args, "OO", &state, &processor))
        return NULL;
    MachineBox *box = PyMem_Malloc(sizeof(MachineBox));
    if (box == NULL)
        return PyErr_NoMemory();
    if (unpack_machine(state, &box->m) < 0) {
        PyMem_Free(box);
        return NULL;
    }
    box->m.processor = processor;
    Py_INCREF(state);
    box->owner = state;
    PyObject *capsule = PyCapsule_New(box, MACHINE_CAPSULE, machine_capsule_free);
    if (capsule == NULL) {
        Py_DECREF(state);
        PyMem_Free(box);
    }
    return capsule;
}

/* pack_ctx(ctx, machine_capsule, ws_base, ws_stride, ws_size,
 *          cold_base, cold_pool, site_state, line_bytes) -> capsule */
static PyObject *
cachesim_pack_ctx(PyObject *module, PyObject *args)
{
    (void)module;
    PyObject *ctx, *machine_capsule, *site_state;
    long ws_base, ws_stride, ws_size, cold_base, cold_pool, line_bytes;
    if (!PyArg_ParseTuple(args, "OOlllllOl", &ctx, &machine_capsule,
                          &ws_base, &ws_stride, &ws_size, &cold_base,
                          &cold_pool, &site_state, &line_bytes))
        return NULL;
    Machine *m = machine_arg(machine_capsule);
    if (m == NULL)
        return NULL;
    CtxBox *box = PyMem_Malloc(sizeof(CtxBox));
    if (box == NULL)
        return PyErr_NoMemory();
    box->m = *m;
    box->ctx = ctx;
    box->site_state = site_state;
    box->ws_base = ws_base;
    box->ws_stride = ws_stride;
    box->ws_size = ws_size;
    box->cold_base = cold_base;
    box->cold_pool = cold_pool;
    box->line_bytes = line_bytes;
    Py_INCREF(machine_capsule);
    box->owner = machine_capsule;
    PyObject *capsule = PyCapsule_New(box, CTX_CAPSULE, ctx_capsule_free);
    if (capsule == NULL) {
        Py_DECREF(machine_capsule);
        PyMem_Free(box);
    }
    return capsule;
}

/* pack_segment(handle_tuple) -> capsule; the handle is pure scalars. */
static PyObject *
cachesim_pack_segment(PyObject *module, PyObject *seg)
{
    (void)module;
    if (!PyTuple_Check(seg) || PyTuple_GET_SIZE(seg) != 16) {
        PyErr_SetString(PyExc_TypeError, "segment handle must be a 16-tuple");
        return NULL;
    }
    PyObject *sites = PyTuple_GET_ITEM(seg, 15);
    Py_ssize_t n_sites = PyTuple_GET_SIZE(sites);
    SegBox *box = PyMem_Malloc(sizeof(SegBox) + n_sites * sizeof(SiteC));
    if (box == NULL)
        return PyErr_NoMemory();
    box->base = PyLong_AsLong(PyTuple_GET_ITEM(seg, 0));
    box->hot = PyLong_AsLong(PyTuple_GET_ITEM(seg, 1));
    box->cold = PyLong_AsLong(PyTuple_GET_ITEM(seg, 2));
    box->instructions = PyLong_AsLong(PyTuple_GET_ITEM(seg, 3));
    box->uops = PyLong_AsLong(PyTuple_GET_ITEM(seg, 4));
    box->data_refs = PyLong_AsLong(PyTuple_GET_ITEM(seg, 5));
    box->dep = PyLong_AsLong(PyTuple_GET_ITEM(seg, 6));
    box->fu = PyLong_AsLong(PyTuple_GET_ITEM(seg, 7));
    box->ild = PyLong_AsLong(PyTuple_GET_ITEM(seg, 8));
    box->total_stall = PyLong_AsLong(PyTuple_GET_ITEM(seg, 9));
    box->touches = PyLong_AsLong(PyTuple_GET_ITEM(seg, 10));
    box->bulk = PyLong_AsLong(PyTuple_GET_ITEM(seg, 11));
    box->bulk_taken = PyLong_AsLong(PyTuple_GET_ITEM(seg, 12));
    box->bulk_expected = PyFloat_AsDouble(PyTuple_GET_ITEM(seg, 13));
    box->bulk_btb = PyLong_AsLong(PyTuple_GET_ITEM(seg, 14));
    box->n_sites = n_sites;
    for (Py_ssize_t i = 0; i < n_sites; i++) {
        PyObject *site = PyTuple_GET_ITEM(sites, i);
        box->sites[i].kind = PyLong_AsLong(PyTuple_GET_ITEM(site, 0));
        box->sites[i].addr = PyLong_AsLong(PyTuple_GET_ITEM(site, 1));
        box->sites[i].weight = PyLong_AsLong(PyTuple_GET_ITEM(site, 2));
    }
    if (PyErr_Occurred()) {
        PyMem_Free(box);
        return NULL;
    }
    PyObject *capsule = PyCapsule_New(box, SEG_CAPSULE, seg_capsule_free);
    if (capsule == NULL)
        PyMem_Free(box);
    return capsule;
}

/* --------------------------------------------------------- entry points */

/* charged_strided(machine, addr, stride, count, size, write)
 * -- ``SimulatedProcessor.data_read_strided`` / ``data_write_strided``
 * (and their scalar ``data_read``/``data_write`` special case) including
 * DTLB, caches and event counters; returns the L1D miss count. */
static PyObject *
cachesim_charged_strided(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "charged_strided takes 6 arguments");
        return NULL;
    }
    Machine *m = machine_arg(args[0]);
    long addr = PyLong_AsLong(args[1]);
    long stride = PyLong_AsLong(args[2]);
    long count = PyLong_AsLong(args[3]);
    long size = PyLong_AsLong(args[4]);
    long write = PyLong_AsLong(args[5]);
    if (m == NULL || PyErr_Occurred())
        return NULL;
    if (count <= 0)
        return PyLong_FromLong(0);
    Counts dc = {0, 0, 0, 0, 0, 0, 0, 0};
    long dtlb_acc = 0, dtlb_miss = 0;
    if (data_strided_impl(m, addr, stride, count, size, write ? 1 : 0,
                          &dc, &dtlb_acc, &dtlb_miss) < 0)
        return NULL;
    if (fold_data(m, &dc, count, dtlb_acc, dtlb_miss, write ? 1 : 0) < 0)
        return NULL;
    return PyLong_FromLong(dc.misses);
}

/* fetch_run(machine, line_addr, count) -- ``fetch_code_run`` including the
 * ITLB, front-end stall accumulation and counters; returns L1I misses. */
static PyObject *
cachesim_fetch_run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "fetch_run takes 3 arguments");
        return NULL;
    }
    Machine *m = machine_arg(args[0]);
    long line_addr = PyLong_AsLong(args[1]);
    long count = PyLong_AsLong(args[2]);
    if (m == NULL || PyErr_Occurred())
        return NULL;
    if (count <= 0)
        return PyLong_FromLong(0);
    int err = 0;
    double stall = get_double_attr(m->processor, s_l1i_stall, &err);
    long last_page = err ? 0 : get_long_attr(m->processor, s_last_page, &err);
    if (err)
        return NULL;
    Counts ic = {0, 0, 0, 0, 0, 0, 0, 0};
    long itlb_acc = 0, itlb_miss = 0;
    if (fetch_run_impl(m, line_addr, count, &ic, &itlb_acc, &itlb_miss,
                       &last_page, &stall) < 0)
        return NULL;
    if (set_long_attr(m->processor, s_last_page, last_page) < 0
            || set_double_attr(m->processor, s_l1i_stall, stall) < 0
            || fold_fetch(m, &ic, itlb_acc, itlb_miss) < 0)
        return NULL;
    return PyLong_FromLong(ic.misses);
}

/* conjunct(machine, address, outcomes) -- the per-row branch loop of
 * ``visit_conjunct_batch``; returns (taken, mispredictions, btb_misses). */
static PyObject *
cachesim_conjunct(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "conjunct takes 3 arguments");
        return NULL;
    }
    Machine *m = machine_arg(args[0]);
    long address = PyLong_AsLong(args[1]);
    PyObject *outcomes = args[2];
    if (m == NULL || PyErr_Occurred())
        return NULL;
    PyObject *seq = PySequence_Fast(outcomes, "outcomes must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(seq);
    BranchDeltas bd = {0, 0, 0, 0, 0};
    long taken_count = 0, mispredictions = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        int taken = PyObject_IsTrue(PySequence_Fast_GET_ITEM(seq, i));
        if (taken < 0) {
            Py_DECREF(seq);
            return NULL;
        }
        int mispredicted = branch_exec(m, address, taken, 0, &bd);
        if (mispredicted < 0) {
            Py_DECREF(seq);
            return NULL;
        }
        taken_count += taken;
        mispredictions += mispredicted;
    }
    Py_DECREF(seq);
    if (fold_branch(m->branch_obj, &bd) < 0)
        return NULL;
    return Py_BuildValue("(lll)", taken_count, mispredictions, bd.btb_misses);
}

/* visit(ctx_capsule, segment_capsule, data_taken) -- one full
 * ``ExecutionContext._visit_segment``: hot + cold instruction fetch,
 * fused routine counters, workspace touches, branch sites, bulk branches.
 * Site kinds: 0 loop, 1 data, 2 alternating, 3 rare, 4 cold.
 * data_taken: -1 none / 0 false / 1 true. */
static PyObject *
cachesim_visit(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "visit takes 3 arguments");
        return NULL;
    }
    CtxBox *cb = PyCapsule_GetPointer(args[0], CTX_CAPSULE);
    if (cb == NULL)
        return NULL;
    SegBox *sb = PyCapsule_GetPointer(args[1], SEG_CAPSULE);
    if (sb == NULL)
        return NULL;
    long data_taken = PyLong_AsLong(args[2]);
    if (data_taken == -1 && PyErr_Occurred())
        return NULL;
    Machine *m = &cb->m;
    PyObject *ctx = cb->ctx;
    PyObject *site_state = cb->site_state;
    long ws_base = cb->ws_base, ws_stride = cb->ws_stride;
    long ws_size = cb->ws_size;
    long cold_base = cb->cold_base, cold_pool = cb->cold_pool;
    long line_bytes = cb->line_bytes;
    long base = sb->base, hot_count = sb->hot, cold_count = sb->cold;
    long instructions = sb->instructions, uops = sb->uops;
    long data_refs = sb->data_refs;
    long dep = sb->dep, fu = sb->fu, ild = sb->ild;
    long total_stall = sb->total_stall, touches = sb->touches;
    long bulk = sb->bulk, bulk_taken = sb->bulk_taken, bulk_btb = sb->bulk_btb;
    double bulk_expected = sb->bulk_expected;

    int err = 0;
    long visit_counter = get_long_attr(ctx, s_visit_counter, &err) + 1;
    if (err)
        return NULL;

    /* Instruction side: hot lines, then the cold-code slice. */
    double stall = get_double_attr(m->processor, s_l1i_stall, &err);
    long last_page = err ? 0 : get_long_attr(m->processor, s_last_page, &err);
    if (err)
        return NULL;
    Counts ic = {0, 0, 0, 0, 0, 0, 0, 0};
    long itlb_acc = 0, itlb_miss = 0;
    if (fetch_run_impl(m, base, hot_count, &ic, &itlb_acc, &itlb_miss,
                       &last_page, &stall) < 0)
        return NULL;
    if (cold_count) {
        long cursor = get_long_attr(ctx, s_cold_cursor, &err);
        if (err)
            return NULL;
        long run = cold_pool - cursor;
        if (cold_count <= run) {
            if (fetch_run_impl(m, cold_base + cursor * line_bytes, cold_count,
                               &ic, &itlb_acc, &itlb_miss, &last_page,
                               &stall) < 0)
                return NULL;
        }
        else {
            if (fetch_run_impl(m, cold_base + cursor * line_bytes, run,
                               &ic, &itlb_acc, &itlb_miss, &last_page,
                               &stall) < 0
                    || fetch_run_impl(m, cold_base, cold_count - run,
                                      &ic, &itlb_acc, &itlb_miss, &last_page,
                                      &stall) < 0)
                return NULL;
        }
        if (set_long_attr(ctx, s_cold_cursor,
                          (cursor + cold_count) % cold_pool) < 0)
            return NULL;
    }
    if (set_long_attr(m->processor, s_last_page, last_page) < 0
            || set_double_attr(m->processor, s_l1i_stall, stall) < 0
            || fold_fetch(m, &ic, itlb_acc, itlb_miss) < 0)
        return NULL;

    /* Fused retirement / bulk-reference / resource-stall counters
     * (``charge_routine``). */
    if (dict_add(m->user, k_INST_RETIRED, instructions) < 0
            || dict_add(m->user, k_INST_DECODED, instructions) < 0
            || dict_add(m->user, k_UOPS_RETIRED, uops) < 0
            || dict_add(m->user, k_DATA_MEM_REFS, data_refs) < 0
            || dict_add(m->user, k_PARTIAL_RAT_STALLS, dep) < 0
            || dict_add(m->user, k_FU_CONTENTION_STALLS, fu) < 0
            || dict_add(m->user, k_ILD_STALL, ild) < 0
            || dict_add(m->user, k_RESOURCE_STALLS, total_stall) < 0)
        return NULL;

    /* The OS-interference hook of ``charge_routine``, at the same point of
     * the visit: the clock advances by the retired instructions and any
     * interrupt that falls due is serviced in Python.  The handler mutates
     * in place the L1I set lists and the ITLB OrderedDict borrowed here and
     * rebinds ``_last_instruction_page``; every instruction-side local was
     * written back and folded above, and nothing below reads one. */
    if (m->has_os) {
        PyObject *retired = PyLong_FromLong(instructions);
        if (retired == NULL)
            return NULL;
        PyObject *r = PyObject_CallMethodObjArgs(m->processor,
                                                 s_advance_os_clock,
                                                 retired, NULL);
        Py_DECREF(retired);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }

    /* Private working-set touches. */
    if (touches > 0) {
        long cursor = get_long_attr(ctx, s_workspace_cursor, &err);
        if (err)
            return NULL;
        Counts dc = {0, 0, 0, 0, 0, 0, 0, 0};
        long dtlb_acc = 0, dtlb_miss = 0;
        if (workspace_impl(m, ws_base, ws_stride, ws_size, touches, &cursor,
                           &dc, &dtlb_acc, &dtlb_miss) < 0)
            return NULL;
        if (set_long_attr(ctx, s_workspace_cursor, cursor) < 0
                || fold_data(m, &dc, touches, dtlb_acc, dtlb_miss, 0) < 0)
            return NULL;
    }

    /* Branch sites. */
    Py_ssize_t n_sites = sb->n_sites;
    if (n_sites) {
        BranchDeltas bd = {0, 0, 0, 0, 0};
        long weight_branches = 0, weight_taken = 0, weight_mispred = 0;
        for (Py_ssize_t i = 0; i < n_sites; i++) {
            long kind = sb->sites[i].kind;
            long site_addr = sb->sites[i].addr;
            long weight = sb->sites[i].weight;
            int taken;
            long exec_addr = site_addr;
            if (kind == 0) {  /* loop: always taken */
                taken = 1;
            }
            else if (kind == 1) {  /* data-dependent */
                taken = data_taken < 0 ? pseudo_random_bit(visit_counter,
                                                           site_addr)
                                       : (data_taken ? 1 : 0);
            }
            else if (kind == 2 || kind == 3) {  /* alternating / rare */
                PyObject *key = PyLong_FromLong(site_addr);
                if (key == NULL)
                    return NULL;
                PyObject *cur = PyDict_GetItemWithError(site_state, key);
                if (cur == NULL && PyErr_Occurred()) {
                    Py_DECREF(key);
                    return NULL;
                }
                long state_value = cur == NULL ? 0 : PyLong_AsLong(cur);
                state_value = kind == 2 ? (state_value ^ 1) : state_value + 1;
                PyObject *obj = PyLong_FromLong(state_value);
                int rc = obj == NULL ? -1
                                     : PyDict_SetItem(site_state, key, obj);
                Py_XDECREF(obj);
                Py_DECREF(key);
                if (rc < 0)
                    return NULL;
                taken = kind == 2 ? (state_value != 0)
                                  : (state_value % 64 == 0);
            }
            else {  /* cold: the site address varies per visit */
                long offset = (long)(((unsigned long)visit_counter
                                      * HASH_CONSTANT) & 0x1FFFUL);
                exec_addr = site_addr + 64 + (offset & ~0x3FL);
                taken = pseudo_random_bit(visit_counter, exec_addr);
            }
            int mispredicted = branch_exec(m, exec_addr, taken,
                                           kind == 0, &bd);
            if (mispredicted < 0)
                return NULL;
            weight_branches += weight;
            if (taken)
                weight_taken += weight;
            if (mispredicted)
                weight_mispred += weight;
        }
        if (weight_branches > 0) {
            if (dict_add(m->user, k_BR_INST_RETIRED, weight_branches) < 0
                    || dict_add(m->user, k_BR_TAKEN_RETIRED, weight_taken) < 0
                    || dict_add(m->user, k_BR_MISS_PRED_RETIRED,
                                weight_mispred) < 0
                    || dict_add(m->user, k_BTB_MISSES, bd.btb_misses) < 0)
                return NULL;
        }
        if (fold_branch(m->branch_obj, &bd) < 0)
            return NULL;
    }

    /* Bulk branch population (counters only; the predictor is untouched). */
    if (bulk > 0) {
        double carry = get_double_attr(ctx, s_bulk_carry, &err);
        if (err)
            return NULL;
        double expected = bulk_expected + carry;
        long bulk_mispred = (long)expected;  /* int(): truncation */
        if (set_double_attr(ctx, s_bulk_carry,
                            expected - (double)bulk_mispred) < 0)
            return NULL;
        if (dict_add(m->user, k_BR_INST_RETIRED, bulk) < 0
                || dict_add(m->user, k_BR_TAKEN_RETIRED, bulk_taken) < 0
                || dict_add(m->user, k_BR_MISS_PRED_RETIRED, bulk_mispred) < 0
                || dict_add(m->user, k_BTB_MISSES, bulk_btb) < 0)
            return NULL;
    }

    if (set_long_attr(ctx, s_visit_counter, visit_counter) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* workspace(ctx_state, touches) -- ``_touch_workspace`` alone (the
 * vectorized loop-body churn of ``visit_batch``). */
static PyObject *
cachesim_workspace(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "workspace takes 2 arguments");
        return NULL;
    }
    CtxBox *cb = PyCapsule_GetPointer(args[0], CTX_CAPSULE);
    if (cb == NULL)
        return NULL;
    long touches = PyLong_AsLong(args[1]);
    if (touches == -1 && PyErr_Occurred())
        return NULL;
    if (touches <= 0)
        Py_RETURN_NONE;
    Machine *m = &cb->m;
    int err = 0;
    long cursor = get_long_attr(cb->ctx, s_workspace_cursor, &err);
    if (err)
        return NULL;
    Counts dc = {0, 0, 0, 0, 0, 0, 0, 0};
    long dtlb_acc = 0, dtlb_miss = 0;
    if (workspace_impl(m, cb->ws_base, cb->ws_stride, cb->ws_size, touches,
                       &cursor, &dc, &dtlb_acc, &dtlb_miss) < 0)
        return NULL;
    if (set_long_attr(cb->ctx, s_workspace_cursor, cursor) < 0
            || fold_data(m, &dc, touches, dtlb_acc, dtlb_miss, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef cachesim_methods[] = {
    {"strided", cachesim_strided, METH_VARARGS,
     "Bulk strided access; returns counter deltas."},
    {"lines", cachesim_lines, METH_VARARGS,
     "Bulk line-run access; returns counter deltas."},
    {"pack_machine", cachesim_pack_machine, METH_VARARGS,
     "Parse a processor state tuple into a reusable capsule."},
    {"pack_ctx", cachesim_pack_ctx, METH_VARARGS,
     "Parse execution-context constants into a reusable capsule."},
    {"pack_segment", cachesim_pack_segment, METH_O,
     "Parse a code-segment handle tuple into a reusable capsule."},
    {"charged_strided", (PyCFunction)(void (*)(void))cachesim_charged_strided,
     METH_FASTCALL,
     "Charged strided data access (DTLB + caches + counters); returns misses."},
    {"fetch_run", (PyCFunction)(void (*)(void))cachesim_fetch_run,
     METH_FASTCALL,
     "Charged instruction-line run fetch (ITLB + L1I + counters); returns misses."},
    {"conjunct", (PyCFunction)(void (*)(void))cachesim_conjunct, METH_FASTCALL,
     "Per-row conjunct branch loop; returns (taken, mispredictions, btb_misses)."},
    {"visit", (PyCFunction)(void (*)(void))cachesim_visit, METH_FASTCALL,
     "One full executor-routine visit (fetch, counters, workspace, branches)."},
    {"workspace", (PyCFunction)(void (*)(void))cachesim_workspace, METH_FASTCALL,
     "Charged cyclic workspace touches (DTLB + caches + counters)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cachesim_module = {
    PyModuleDef_HEAD_INIT, "_cachesim",
    "Native fast paths for the cache automaton and the charging loops.",
    -1, cachesim_methods, NULL, NULL, NULL, NULL,
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
    INTERN(s_accesses, "accesses");
    INTERN(s_misses, "misses");
    INTERN(s_writebacks, "writebacks");
    INTERN(s_branches, "branches");
    INTERN(s_taken, "taken");
    INTERN(s_mispredictions, "mispredictions");
    INTERN(s_btb_hits, "btb_hits");
    INTERN(s_btb_misses, "btb_misses");
    INTERN(s_tag, "tag");
    INTERN(s_history, "history");
    INTERN(s_counters, "counters");
    INTERN(s_move_to_end, "move_to_end");
    INTERN(s_popitem, "popitem");
    INTERN(s_visit_counter, "_visit_counter");
    INTERN(s_cold_cursor, "_cold_cursor");
    INTERN(s_workspace_cursor, "_workspace_cursor");
    INTERN(s_bulk_carry, "_bulk_mispred_carry");
    INTERN(s_l1i_stall, "_l1i_stall_cycles");
    INTERN(s_last_page, "_last_instruction_page");
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

PyMODINIT_FUNC
PyInit__cachesim(void)
{
    PyObject *module = PyModule_Create(&cachesim_module);
    if (module == NULL)
        return NULL;
    if (init_interned() < 0
            || PyModule_AddStringConstant(module, "source_hash",
                                          CACHESIM_SOURCE_HASH) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
