/* Compiled partition walk behind symbreak.kernels.

   walk(n, elements, kmax, budget, count) walks the tree of set partitions
   of {0..n-1} into at most kmax blocks that the partition searches of
   symbreak._kernels_py walk, as canonical block assignments: vertex 0 opens
   block 0, a new block always takes the smallest unused id, and the blocks
   of a vertex are tried in increasing order.  An element stays live while
   every vertex pair it joins (e(v) = w or e(w) = v) lies in one block; once
   no element is live, every completion of the partition is preserved by
   none of them.  One node is charged per block tried, before it is tried.

   elements is a buffer of C ints, n per element: the image tuples.
   With count false the walk stops at the first node that leaves no element
   live and returns whether there is one.  With count true it walks the
   whole tree and returns the closure histogram as a flat list: entry
   v * (kmax + 1) + b is the number of nodes where the live set empties as
   vertex v is placed, with b blocks open after it.  Past budget nodes it
   returns None.  symbreak.kernels turns the histogram into exact counts
   and raises BudgetExceededError with the caller's budget.

   All memory is allocated per call, so n has no word-size limit. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef struct {
    int n, m, kmax, count;
    long long nodes, budget;
    int *imgs;             /* imgs[e * n + v] = e(v) */
    int *invs;             /* invs[e * n + v] = e^-1(v) */
    int *live;             /* row v: ids of the elements live above vertex v */
    int *color;            /* block of each placed vertex */
    long long *closures;   /* count mode: the histogram */
} Walk;

/* 1 when a node left no element live (existence only), -1 when the budget
   ran out, 0 otherwise. */
static int
place(Walk *s, int v, int b, int live_len)
{
    const int *parent = s->live + (Py_ssize_t)v * s->m;
    int *child = s->live + (Py_ssize_t)(v + 1) * s->m;
    int top = b + 1 < s->kmax ? b + 1 : s->kmax;

    for (int c = 0; c < top; c++) {
        if (++s->nodes > s->budget)
            return -1;
        s->color[v] = c;
        int nlen = 0;
        for (int i = 0; i < live_len; i++) {
            Py_ssize_t at = (Py_ssize_t)parent[i] * s->n + v;
            int w = s->imgs[at], u = s->invs[at];
            if ((w < v && s->color[w] != c) || (u < v && s->color[u] != c))
                continue;
            child[nlen++] = parent[i];
        }
        int nb = c == b ? b + 1 : b;
        if (nlen == 0) {
            if (!s->count)
                return 1;
            s->closures[(Py_ssize_t)v * (s->kmax + 1) + nb]++;
        }
        else if (v + 1 < s->n) {
            int r = place(s, v + 1, nb, nlen);
            if (r)
                return r;
        }
        /* a full assignment with live elements is preserved by them */
    }
    return 0;
}

static PyObject *
walk(PyObject *self, PyObject *args)
{
    Walk s = {0};
    Py_buffer buf;
    PyObject *out = NULL;
    (void)self;

    if (!PyArg_ParseTuple(args, "iy*iLp", &s.n, &buf, &s.kmax, &s.budget,
                          &s.count))
        return NULL;
    Py_ssize_t cells = buf.len / (Py_ssize_t)sizeof(int);
    if (s.n < 1 || s.kmax < 1 || s.kmax > s.n
        || buf.len % (Py_ssize_t)sizeof(int) || cells % s.n) {
        PyErr_SetString(PyExc_ValueError,
                        "need 1 <= kmax <= n and n ints per element");
        goto done;
    }
    s.m = (int)(cells / s.n);
    s.imgs = PyMem_Malloc(sizeof(int) * (3 * cells + s.m + s.n));
    if (s.count)
        s.closures = PyMem_Calloc((size_t)s.n * (s.kmax + 1),
                                  sizeof(long long));
    if (s.imgs == NULL || (s.count && s.closures == NULL)) {
        PyErr_NoMemory();
        goto done;
    }
    s.invs = s.imgs + cells;
    s.live = s.invs + cells;
    s.color = s.live + cells + s.m;
    memcpy(s.imgs, buf.buf, buf.len);
    for (Py_ssize_t i = 0; i < cells; i++)
        s.invs[i] = -1;
    for (Py_ssize_t i = 0; i < cells; i++) {
        int w = s.imgs[i];
        Py_ssize_t base = i - i % s.n;
        if (w < 0 || w >= s.n || s.invs[base + w] >= 0) {
            PyErr_SetString(PyExc_ValueError,
                            "element is not a permutation of 0..n-1");
            goto done;
        }
        s.invs[base + w] = (int)(i - base);
    }
    for (int e = 0; e < s.m; e++)
        s.live[e] = e;

    int r = place(&s, 0, 0, s.m);
    if (r < 0)
        out = Py_NewRef(Py_None);
    else if (!s.count)
        out = PyBool_FromLong(r);
    else {
        Py_ssize_t size = (Py_ssize_t)s.n * (s.kmax + 1);
        out = PyList_New(size);
        for (Py_ssize_t i = 0; out != NULL && i < size; i++) {
            PyObject *item = PyLong_FromLongLong(s.closures[i]);
            if (item == NULL)
                Py_CLEAR(out);
            else
                PyList_SET_ITEM(out, i, item);
        }
    }

done:
    PyMem_Free(s.imgs);
    PyMem_Free(s.closures);
    PyBuffer_Release(&buf);
    return out;
}

static PyMethodDef methods[] = {
    {"walk", walk, METH_VARARGS,
     "walk(n, elements, kmax, budget, count) -> bool, histogram or None"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "symbreak._kernels",
    .m_doc = "Compiled partition walk behind symbreak.kernels.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
